// Package mpe reproduces the Multi-Processing Environment logging library
// that the paper adapts for Pilot: event IDs allocated at initialisation,
// states (paired start/end events) and solo events with name and colour
// properties, per-rank log buffers stamped by each rank's own clock,
// send/receive records that the converter pairs into arrows, clock
// synchronisation to undo drift, and a final collective merge that ships
// every rank's buffer to rank 0 and writes one CLOG-2 file.
//
// Two properties from the paper are deliberately preserved:
//
//   - The merge happens at program end over MPI messages, so the wrap-up
//     cost is paid at termination (measured in Section III.E) and the log
//     is unrecoverably lost if the world aborts first (Section III.B).
//   - Event cargo is limited to 40 bytes, as in MPE.
package mpe

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"repro/internal/clog2"
	"repro/internal/mpi"
)

// StateID names a defined state (a pair of start/end event types).
type StateID int32

// EventID names a defined solo event.
type EventID int32

// MaxStates is the largest allocatable StateID: state s uses etypes 2s and
// 2s+1, which must stay below clog2.SoloBase or they would collide with
// solo event etypes and silently corrupt the log.
const MaxStates = clog2.SoloBase/2 - 1

// MaxEvents is the largest allocatable EventID: clog2.SoloBase+e must fit int32.
const MaxEvents = math.MaxInt32 - clog2.SoloBase

// SyntheticEndCargo marks a state-end record that Finish fabricated for a
// state still open at wrap-up (a rank that returned early). The converter
// recognises the marker and counts the state as a nesting error instead of
// dropping it or desynchronizing its pairing stack.
const SyntheticEndCargo = "mpe: synthetic end (open at finish)"

func startEtype(s StateID) int32 { return int32(s) * 2 }
func endEtype(s StateID) int32   { return int32(s)*2 + 1 }
func soloEtype(e EventID) int32  { return clog2.SoloBase + int32(e) }

// IsStartEtype reports whether etype marks a state start, and the state.
func IsStartEtype(etype int32) (StateID, bool) {
	if etype >= clog2.SoloBase || etype%2 != 0 {
		return 0, false
	}
	return StateID(etype / 2), true
}

// IsEndEtype reports whether etype marks a state end, and the state.
func IsEndEtype(etype int32) (StateID, bool) {
	if etype >= clog2.SoloBase || etype%2 == 0 {
		return 0, false
	}
	return StateID(etype / 2), true
}

// IsSoloEtype reports whether etype is a solo event, and which.
func IsSoloEtype(etype int32) (EventID, bool) {
	if etype < clog2.SoloBase {
		return 0, false
	}
	return EventID(etype - clog2.SoloBase), true
}

// Group owns the logging state for one MPI world: the definition tables
// and one Logger per rank.
type Group struct {
	world   *mpi.World
	enabled bool

	mu     sync.Mutex
	states []def // index = StateID-1
	events []def // index = EventID-1
	// spillPrefix, when non-empty, makes every logger write each record
	// through to an abort-surviving spill file (see spill.go).
	spillPrefix string

	loggers []*Logger
}

type def struct {
	name  string
	color string
}

// NewGroup creates logging state for world. When enabled is false every
// logging call is a no-op, which is the "-pisvc without j" configuration
// used as the overhead baseline.
func NewGroup(world *mpi.World, enabled bool) *Group {
	g := &Group{world: world, enabled: enabled}
	g.loggers = make([]*Logger, world.Size())
	for i := range g.loggers {
		g.loggers[i] = &Logger{g: g, rank: world.Rank(i)}
	}
	return g
}

// Enabled reports whether logging is active.
func (g *Group) Enabled() bool { return g.enabled }

// DescribeState defines a state with display properties and returns its
// ID. Definitions are shared by all ranks (Pilot defines every state once,
// during the configuration phase). Allocating more than MaxStates states
// panics: the next ID's etypes would collide with solo event etypes and
// silently corrupt every log written afterwards.
func (g *Group) DescribeState(name, color string) StateID {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.states) >= MaxStates {
		panic(fmt.Sprintf("mpe: DescribeState(%q): state ID space exhausted (%d states); the next ID's etypes would collide with solo event etypes", name, MaxStates))
	}
	g.states = append(g.states, def{name, color})
	return StateID(len(g.states))
}

// DescribeEvent defines a solo event and returns its ID. Allocating more
// than MaxEvents events panics: the next solo etype would overflow int32.
func (g *Group) DescribeEvent(name, color string) EventID {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.events) >= MaxEvents {
		panic(fmt.Sprintf("mpe: DescribeEvent(%q): event ID space exhausted (%d events); the next solo etype would overflow", name, MaxEvents))
	}
	g.events = append(g.events, def{name, color})
	return EventID(len(g.events))
}

// Logger returns rank's logger.
func (g *Group) Logger(rank int) *Logger { return g.loggers[rank] }

// defRecords renders the definition tables as CLOG-2 records (written in
// rank 0's first block).
func (g *Group) defRecords() []clog2.Record {
	g.mu.Lock()
	defer g.mu.Unlock()
	recs := make([]clog2.Record, 0, len(g.states)+len(g.events))
	for i, d := range g.states {
		id := StateID(i + 1)
		recs = append(recs, clog2.Record{
			Type: clog2.RecStateDef, ID: int32(id),
			Aux1: startEtype(id), Aux2: endEtype(id),
			Color: d.color, Name: d.name,
		})
	}
	for i, d := range g.events {
		id := EventID(i + 1)
		recs = append(recs, clog2.Record{
			Type: clog2.RecEventDef, ID: soloEtype(id),
			Color: d.color, Name: d.name,
		})
	}
	return recs
}

// Logger is one rank's event log. A Logger must only be used from the
// goroutine acting as its rank, mirroring MPE's per-process logging.
type Logger struct {
	g    *Group
	rank *mpi.Rank
	// recs is the chunked record arena: appends never copy records, and
	// the chunks are recycled through a pool at Finish, so steady-state
	// logging allocates nothing.
	recs arena
	// openStates mirrors the converter's pairing stack: states started but
	// not yet ended. Finish closes any leftovers with synthetic ends.
	openStates []StateID

	sp        *spill
	spErr     error
	spChecked bool
	spPrefix  string
	// spillArr is the reusable single-record encode buffer for the
	// write-through spill path, so spilling never allocates per record.
	spillArr [1]clog2.Record
}

// Rank returns the MPI rank this logger belongs to.
func (l *Logger) Rank() int { return l.rank.ID() }

// Enabled reports whether logging is active for this logger's group.
func (l *Logger) Enabled() bool { return l.g.enabled }

// Len returns the number of buffered records (diagnostics and tests).
func (l *Logger) Len() int { return l.recs.len() }

// Discard drops every buffered record and recycles the arena chunks
// without the collective merge. Benchmarks use it to keep long
// measurement loops memory-bounded; a real run ends with Finish.
func (l *Logger) Discard() {
	l.recs.release()
	l.openStates = l.openStates[:0]
}

// newRecord hands out the next record slot, stamped with this rank's
// clock. The caller fills the payload fields and then calls commit.
func (l *Logger) newRecord(t clog2.RecType, id int32) *clog2.Record {
	r := l.recs.alloc()
	r.Time = l.rank.Wtime()
	r.Rank = int32(l.rank.ID())
	r.Type = t
	r.ID = id
	return r
}

// commit finishes a record handed out by newRecord: once the payload is
// complete it can be written through to the spill file.
func (l *Logger) commit(r *clog2.Record) {
	if !l.spChecked {
		// EnableSpill happens before any logging (configuration phase),
		// so the prefix can be cached on first use.
		l.spPrefix = l.g.SpillPrefix()
		l.spChecked = true
	}
	if l.spPrefix != "" {
		l.spillRecord(r)
	}
}

// StateStart logs the beginning of an instance of state s. cargo is
// truncated to the MPE 40-byte limit.
func (l *Logger) StateStart(s StateID, cargo string) {
	if !l.g.enabled {
		return
	}
	l.openStates = append(l.openStates, s)
	r := l.newRecord(clog2.RecCargoEvt, startEtype(s))
	r.SetCargo(cargo)
	l.commit(r)
}

// StateStartBytes is StateStart taking the cargo as bytes — the form the
// Pilot call sites use with the Cargo builder, keeping the hot path free
// of string construction.
func (l *Logger) StateStartBytes(s StateID, cargo []byte) {
	if !l.g.enabled {
		return
	}
	l.openStates = append(l.openStates, s)
	r := l.newRecord(clog2.RecCargoEvt, startEtype(s))
	r.SetCargoBytes(cargo)
	l.commit(r)
}

// StateEnd logs the end of an instance of state s.
func (l *Logger) StateEnd(s StateID, cargo string) {
	if !l.g.enabled {
		return
	}
	l.popOpenState()
	r := l.newRecord(clog2.RecCargoEvt, endEtype(s))
	r.SetCargo(cargo)
	l.commit(r)
}

// StateEndBytes is StateEnd taking the cargo as bytes.
func (l *Logger) StateEndBytes(s StateID, cargo []byte) {
	if !l.g.enabled {
		return
	}
	l.popOpenState()
	r := l.newRecord(clog2.RecCargoEvt, endEtype(s))
	r.SetCargoBytes(cargo)
	l.commit(r)
}

// popOpenState pops the innermost open state; a mismatched ID is the
// converter's nesting error to report, but the stack depth still shrinks
// by one.
func (l *Logger) popOpenState() {
	if n := len(l.openStates); n > 0 {
		l.openStates = l.openStates[:n-1]
	}
}

// Event logs a solo event — a bubble in Jumpshot.
func (l *Logger) Event(e EventID, cargo string) {
	if !l.g.enabled {
		return
	}
	r := l.newRecord(clog2.RecCargoEvt, soloEtype(e))
	r.SetCargo(cargo)
	l.commit(r)
}

// EventBytes is Event taking the cargo as bytes.
func (l *Logger) EventBytes(e EventID, cargo []byte) {
	if !l.g.enabled {
		return
	}
	r := l.newRecord(clog2.RecCargoEvt, soloEtype(e))
	r.SetCargoBytes(cargo)
	l.commit(r)
}

// LogSend records the sending half of a message arrow. The converter
// pairs it with a LogRecv carrying the same (peer, tag) — "MPE_Log_send
// and MPE_Log_receive should be called in pairs with matching tag number
// and length of data".
func (l *Logger) LogSend(dst, tag, size int) {
	if !l.g.enabled {
		return
	}
	r := l.newRecord(clog2.RecMsgEvt, 0)
	r.Dir = clog2.DirSend
	r.Aux1, r.Aux2, r.Aux3 = int32(dst), int32(tag), int32(size)
	l.commit(r)
}

// LogRecv records the receiving half of a message arrow.
func (l *Logger) LogRecv(src, tag, size int) {
	if !l.g.enabled {
		return
	}
	r := l.newRecord(clog2.RecMsgEvt, 0)
	r.Dir = clog2.DirRecv
	r.Aux1, r.Aux2, r.Aux3 = int32(src), int32(tag), int32(size)
	l.commit(r)
}

// Clock-sync message tags within mpi.CtxLog.
const (
	tagSyncPing = iota
	tagSyncReply
	tagSyncOffset
	tagCollect
)

const syncRounds = 4

// Finish is the collective log wrap-up (MPE_Log_sync_clocks followed by
// MPE_Finish_log): every rank must call it. Any state still open (a start
// with no end, e.g. a rank that returned early) is closed with a synthetic
// end stamped at log-final time, as clog2TOslog2 does; the converter
// counts those in Report.NestingErrors. Clocks are synchronised
// against rank 0 by ping-pong offset estimation, each rank shifts its
// buffered timestamps onto rank 0's timebase and records a TimeShift,
// then all buffers travel to rank 0, which writes the single merged
// CLOG-2 file to w (only rank 0's w is used; other ranks may pass nil).
//
// If the world has aborted, Finish fails and the log is lost — the
// behaviour the paper documents for PI_Abort.
func (l *Logger) Finish(w io.Writer) error {
	_, err := l.FinishIndexed(w)
	return err
}

// FinishIndexed is Finish returning the block table it wrote at the end of
// the file (rank 0; other ranks get nil).
func (l *Logger) FinishIndexed(w io.Writer) (*clog2.Table, error) {
	// Unwind still-open states innermost-first so the log keeps proper
	// nesting; all synthetic ends share the rank's log-final timestamp.
	for i := len(l.openStates) - 1; i >= 0; i-- {
		r := l.newRecord(clog2.RecCargoEvt, endEtype(l.openStates[i]))
		r.SetCargo(SyntheticEndCargo)
		l.commit(r)
	}
	l.openStates = nil

	offset, err := l.syncClocks()
	if err != nil {
		return nil, fmt.Errorf("mpe: clock sync: %w", err)
	}
	if offset != 0 {
		l.recs.forEach(func(r *clog2.Record) { r.Time -= offset })
	}
	// The timeshift record is metadata stamped at wrap-up; like the old
	// flat-slice path it bypasses the spill (an abort can no longer lose
	// the log at this point anyway).
	ts := l.recs.alloc()
	ts.Type = clog2.RecTimeShift
	ts.Time = l.rank.Wtime() - offset
	ts.Rank = int32(l.rank.ID())
	ts.Shift = offset

	if l.rank.ID() != 0 {
		// One block per rank, encoded once, straight from the arena chunks
		// into a buffer sized for it: the bytes rank 0 will put in the file.
		chunks := l.recs.slices(nil)
		payload, err := appendLog(make([]byte, 0, clog2.HeaderSize+clog2.BlockCap(chunks...)+1),
			l.rank.Size(), int32(l.rank.ID()), chunks...)
		if err != nil {
			return nil, err
		}
		if err := l.rank.SendCtx(mpi.CtxLog, 0, tagCollect, payload); err != nil {
			l.closeSpill(false) // keep the fragment; the merge failed
			return nil, err
		}
		l.closeSpill(true) // merged log supersedes the spill
		l.recs.release()
		return nil, nil
	}

	// Rank 0: write definitions + own block, then collect the others.
	if w == nil {
		return nil, fmt.Errorf("mpe: rank 0 Finish needs an output writer")
	}
	cw, err := clog2.NewWriter(w, l.rank.Size())
	if err != nil {
		return nil, err
	}
	if err := cw.WriteBlockChunks(0, l.recs.slices([][]clog2.Record{l.g.defRecords()})...); err != nil {
		return nil, err
	}
	var entries clog2.Table // one rank's, reused
	for src := 1; src < l.rank.Size(); src++ {
		m, err := l.rank.RecvCtx(mpi.CtxLog, src, tagCollect)
		if err != nil {
			l.closeSpill(false)
			return nil, fmt.Errorf("mpe: collecting rank %d log: %w", src, err)
		}
		entries.Blocks = entries.Blocks[:0]
		blocks, err := checkRankLog(m.Data, src, cw.Offset(), &entries)
		if err != nil {
			l.closeSpill(false)
			return nil, fmt.Errorf("mpe: parsing rank %d log: %w", src, err)
		}
		if err := cw.Splice(blocks, entries.Blocks); err != nil {
			l.closeSpill(false)
			return nil, err
		}
	}
	if err := cw.Close(); err != nil {
		l.closeSpill(false)
		return nil, err
	}
	l.closeSpill(true)
	l.recs.release()
	if prefix := l.g.SpillPrefix(); prefix != "" {
		os.Remove(spillDefsPath(prefix))
	}
	return cw.Table(), nil
}

// appendLog appends a whole one-block CLOG-2 log (file header, rank's
// block, end-log marker) to dst: what a rank ships to rank 0, and what
// the defs spill frames. It carries no block table: rank 0 makes the
// entries as it checks the log.
func appendLog(dst []byte, numRanks int, rank int32, chunks ...[]clog2.Record) ([]byte, error) {
	dst, err := clog2.AppendBlock(clog2.AppendHeader(dst, numRanks), rank, chunks...)
	return append(dst, byte(clog2.RecEndLog)), err
}

// checkRankLog is every check rank 0 makes on the log rank src shipped
// before a byte of it reaches the merged file. It decodes every record,
// a bounded run at a time (clog2's Each), strictly: the log must be what
// appendLog encodes — a header, blocks of src's own rank with the counts
// they declare and their end-block markers, the end-log marker, nothing
// after it. What it returns are the blocks' bytes, now known to be the
// encoding a Writer would produce from the decoded records, so splicing
// them equals writing those; on the way it enters the blocks in t at the
// file offsets they will have once spliced in at offset at.
func checkRankLog(log []byte, src int, at int64, t *clog2.Table) ([]byte, error) {
	br, err := clog2.NewStrictBlockReader(log)
	if err != nil {
		return nil, err
	}
	err = br.Each(func(run clog2.Block) error {
		if int(run.Rank) != src {
			return fmt.Errorf("it holds a block of rank %d", run.Rank)
		}
		t.AddRun(br, run, at-int64(clog2.HeaderSize))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return log[clog2.HeaderSize : len(log)-1], nil
}

// FinishFile is Finish writing to a file path on rank 0.
func (l *Logger) FinishFile(path string) error {
	if l.rank.ID() != 0 {
		return l.Finish(nil)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := l.Finish(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncClocks estimates this rank's clock offset relative to rank 0 using
// the ping-pong scheme (several rounds, best RTT wins). Rank 0's offset is
// zero by definition.
func (l *Logger) syncClocks() (float64, error) {
	r := l.rank
	if r.Size() == 1 {
		return 0, nil
	}
	if r.ID() == 0 {
		for peer := 1; peer < r.Size(); peer++ {
			bestRTT := -1.0
			bestOff := 0.0
			for round := 0; round < syncRounds; round++ {
				t0 := r.Wtime()
				if err := r.SendCtx(mpi.CtxLog, peer, tagSyncPing, nil); err != nil {
					return 0, err
				}
				m, err := r.RecvCtx(mpi.CtxLog, peer, tagSyncReply)
				if err != nil {
					return 0, err
				}
				t1 := r.Wtime()
				remote := decodeF64(m.Data)
				rtt := t1 - t0
				if bestRTT < 0 || rtt < bestRTT {
					bestRTT = rtt
					bestOff = remote - (t0+t1)/2
				}
			}
			if err := r.SendCtx(mpi.CtxLog, peer, tagSyncOffset, encodeF64(bestOff)); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}
	for round := 0; round < syncRounds; round++ {
		if _, err := r.RecvCtx(mpi.CtxLog, 0, tagSyncPing); err != nil {
			return 0, err
		}
		if err := r.SendCtx(mpi.CtxLog, 0, tagSyncReply, encodeF64(r.Wtime())); err != nil {
			return 0, err
		}
	}
	m, err := r.RecvCtx(mpi.CtxLog, 0, tagSyncOffset)
	if err != nil {
		return 0, err
	}
	return decodeF64(m.Data), nil
}

func encodeF64(v float64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	return buf[:]
}

func decodeF64(b []byte) float64 {
	if len(b) < 8 {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}
