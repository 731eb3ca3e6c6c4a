// Package clog2 implements a CLOG-2-style logfile format: the raw,
// per-rank, append-only event log that MPE produces and that is later
// converted to SLOG-2 for display ("the literature calls the conversion
// approach preferred").
//
// A file is a header followed by per-rank blocks of time-stamped records —
// state and event definitions, bare events, cargo events (with the MPE
// 40-byte text limit), point-to-point message events, and timeshift
// records from clock synchronisation — terminated by an end-log marker,
// behind which a Writer puts the log's block table (table.go). A block
// opens with a block-start marker and holds at most MaxBlockRecords records.
// Like real CLOG-2, the file is unmerged across ranks, and each rank's
// records are in the order the rank logged them, which is time order (the
// rule of a block, Block): pairing is the reader's job, done once in file
// order (fold.go), and diagnosing problems by reading the raw records is
// exactly the use case the paper quotes for keeping the two-step pipeline.
package clog2

import (
	"fmt"
	"math"
	"unicode/utf8"
)

// RecType identifies a record's body layout.
type RecType uint8

// Record types.
const (
	RecEndLog     RecType = iota // end of file
	RecEndBlock                  // end of one rank's block
	RecStateDef                  // define a state: id, colour, name
	RecEventDef                  // define a solo event: id, colour, name
	RecConstDef                  // named integer constant
	RecBareEvt                   // event with no payload
	RecCargoEvt                  // event with ≤40 bytes of text cargo
	RecMsgEvt                    // message send or receive half
	RecTimeShift                 // clock-synchronisation offset applied to this rank
	_                            // 9: reserved (a retired source location); refused as unknown
	RecBeginBlock                // start of one rank's block (io.go: AppendBlockHeader)
	numRecTypes
)

// String implements fmt.Stringer.
func (t RecType) String() string {
	names := [...]string{"EndLog", "EndBlock", "StateDef", "EventDef",
		"ConstDef", "BareEvt", "CargoEvt", "MsgEvt", "TimeShift", "", "BeginBlock"}
	if int(t) < len(names) && names[t] != "" {
		return names[t]
	}
	return "RecType(?)"
}

// IsDef reports whether t is a definition: metadata a query hands over
// wherever its window lies (Query.IncludeDefs), and that no time fence
// covers.
func (t RecType) IsDef() bool {
	switch t {
	case RecStateDef, RecEventDef, RecConstDef:
		return true
	}
	return false
}

// MaxCargo is the cargo-text byte limit, matching MPE's 40-byte field (the
// paper: "optional text (limited to 40 bytes)").
const MaxCargo = 40

// Message-event directions.
const (
	DirSend uint8 = 1
	DirRecv uint8 = 2
)

// Record is one logged record. Which fields are meaningful depends on
// Type; unused fields are zero. A flat struct rather than an interface
// keeps the per-event logging cost at one append with no allocation.
type Record struct {
	Time float64
	Rank int32
	Type RecType

	// StateDef: ID=state id, Aux1=start etype, Aux2=end etype.
	// EventDef: ID=etype. ConstDef: ID=etype, Aux1=value.
	// BareEvt/CargoEvt: ID=etype.
	// MsgEvt: Dir, Aux1=peer rank, Aux2=tag, Aux3=size. Dir sits beside
	// Type, in the bytes Rank's alignment leaves: a Record is 120 bytes.
	Dir  uint8
	ID   int32
	Aux1 int32
	Aux2 int32
	Aux3 int32

	// Color and Name are used by definitions. Event cargo lives in the
	// fixed Cargo buffer (see SetCargo) so the per-event hot path carries
	// no heap strings.
	Color string
	Name  string

	// Cargo holds the first CargoLen bytes of a cargo event's text,
	// in-record, matching MPE's fixed 40-byte field. Use SetCargo /
	// SetCargoBytes to fill it and CargoBytes / CargoText to read it.
	Cargo    [MaxCargo]byte
	CargoLen uint8

	// Shift is the timeshift value for RecTimeShift records.
	Shift float64
}

// SetCargo stores cargo text in the record's fixed buffer, truncating
// rune-safely at MaxCargo bytes.
func (r *Record) SetCargo(s string) {
	r.CargoLen = uint8(copy(r.Cargo[:], Trunc(s, MaxCargo)))
}

// SetCargoBytes is SetCargo for an already-assembled byte slice.
func (r *Record) SetCargoBytes(b []byte) {
	r.CargoLen = uint8(copy(r.Cargo[:], TruncBytes(b, MaxCargo)))
}

// CargoBytes returns the cargo text as a view into the record; the slice
// is only valid while the record is.
func (r *Record) CargoBytes() []byte { return r.Cargo[:r.CargoLen] }

// CargoText returns the cargo text as a string (allocating; meant for the
// converter and tools, not the logging hot path).
func (r *Record) CargoText() string { return string(r.Cargo[:r.CargoLen]) }

// Trunc returns s truncated to at most n bytes without splitting a
// multi-byte UTF-8 rune at the boundary: a rune that straddles byte n is
// dropped whole. Invalid UTF-8 falls back to a plain byte cut.
func Trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	if !utf8.RuneStart(s[n]) {
		// Byte n continues a rune that started before the boundary:
		// back up to the rune's start and drop it whole. Garbage that
		// never reaches a start byte gets a plain byte cut.
		for cut := n - 1; cut >= 0 && cut > n-utf8.UTFMax; cut-- {
			if utf8.RuneStart(s[cut]) {
				return s[:cut]
			}
		}
	}
	return s[:n]
}

// TruncBytes is Trunc for byte slices.
func TruncBytes(b []byte, n int) []byte {
	if len(b) <= n {
		return b
	}
	if !utf8.RuneStart(b[n]) {
		for cut := n - 1; cut >= 0 && cut > n-utf8.UTFMax; cut-- {
			if utf8.RuneStart(b[cut]) {
				return b[:cut]
			}
		}
	}
	return b[:n]
}

// Block is one rank's contiguous run of records, under one rule that a
// Writer checks before it writes a byte of a block and a reader before it
// hands one over: its rank is in [0, NumRanks) (checkRank), every record
// carries it, so definitions (rank 0) sit in rank 0's blocks, a message
// half's peer (Aux1) is in [0, NumRanks) (keepsRule), and every timed
// record (bare, cargo, message, timeshift: not a definition) is stamped
// with a finite time no earlier than the timed record of its rank before it
// in file order (inOrder), in this block or an earlier one; and definitions
// lead the log: no definition follows a timed record of any rank in file
// order (defError), so a reader knows every definition before the first
// record it names. Without a log header (AppendBlock, DecodeBlockPayload)
// NumRanks is MaxRanks and the order is the block's own.
type Block struct {
	Rank    int32
	Records []Record
}

// checkRank refuses, by name, a block rank outside [0, numRanks).
func checkRank(rank int32, numRanks int) error {
	if rank < 0 || int(rank) >= numRanks {
		return fmt.Errorf("clog2: a block of rank %d in a log of %d ranks", rank, numRanks)
	}
	return nil
}

// keepsRule reports whether a record of type t, rank and peer keeps the
// rule in a block of rank block; recordError names how one does not (apart,
// so that keepsRule inlines into the decode loop).
func keepsRule(t RecType, rank, peer, block int32, numRanks int) bool {
	return rank == block && (block == 0 || !t.IsDef()) && (t != RecMsgEvt || uint(peer) < uint(numRanks))
}

func recordError(t RecType, rank, peer, block int32, numRanks int) error {
	switch {
	case rank != block:
		return fmt.Errorf("clog2: a %v record of rank %d in a block of rank %d", t, rank, block)
	case t.IsDef():
		return fmt.Errorf("clog2: a %v record in a block of rank %d: definitions sit in rank 0's blocks", t, block)
	}
	return fmt.Errorf("clog2: a message half of rank %d names peer rank %d, outside [0,%d)", rank, peer, numRanks)
}

// defError names a definition of type t that follows a timed record.
func defError(t RecType) error {
	return fmt.Errorf("clog2: a %v record after the log's first timed record", t)
}

// noStamp is the last stamp of a rank with no timed record yet: every
// finite time is at or after it, and -Inf is not.
const noStamp = -math.MaxFloat64

// inOrder reports whether a timed record stamped at keeps the rule after
// its rank's last stamp: at is finite (a NaN fails both comparisons) and no
// earlier than last. stampError names how one does not.
func inOrder(at, last float64) bool { return at >= last && at <= math.MaxFloat64 }

func stampError(t RecType, rank int32, at, last float64) error {
	if inOrder(at, noStamp) {
		return fmt.Errorf("clog2: a %v record of rank %d stamped %v, before its rank's %v", t, rank, at, last)
	}
	return fmt.Errorf("clog2: a %v record of rank %d stamped %v", t, rank, at)
}
