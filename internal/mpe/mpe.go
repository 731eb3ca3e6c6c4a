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

// pageSize is the size of the pages a rank logs into: a record goes on
// the last page when the longest timed record still fits there and on a
// fresh one otherwise, so no record straddles two pages. A page holds no
// pointers, so the collector never scans what a rank has logged.
const pageSize = 64 << 10

// pagePool recycles pages across Finish and Discard.
var pagePool = sync.Pool{New: func() any { return new([pageSize]byte) }}

// Logger is one rank's event log. A Logger must only be used from the
// goroutine acting as its rank, mirroring MPE's per-process logging.
type Logger struct {
	g    *Group
	rank *mpi.Rank
	// pages hold the rank's records as CLOG-2 encodes them, in log order,
	// each a pooled pageSize array cut to the bytes it holds; n counts the
	// records.
	pages [][]byte
	n     int
	// openStates mirrors the converter's pairing stack: states started but
	// not yet ended. Finish closes any leftovers with synthetic ends.
	openStates []StateID

	sp        *spill
	spErr     error
	spChecked bool
	spPrefix  string
}

// Enabled reports whether logging is active for this logger's group.
func (l *Logger) Enabled() bool { return l.g.enabled }

// Len returns the number of buffered records (diagnostics and tests).
func (l *Logger) Len() int { return l.n }

// Discard drops every buffered record and recycles the pages without the
// collective merge. Benchmarks use it to keep long measurement loops
// memory-bounded; a real run ends with Finish.
func (l *Logger) Discard() {
	l.release()
	l.openStates = l.openStates[:0]
}

// release hands every page back to the pool, leaving the log empty; at
// the merge, a page a transport received whole goes back with them.
func (l *Logger) release() {
	for i, p := range l.pages {
		if cap(p) == pageSize {
			pagePool.Put((*[pageSize]byte)(p[:pageSize]))
		}
		l.pages[i] = nil
	}
	l.pages, l.n = l.pages[:0], 0
}

// log stamps r with this rank's clock and appends it.
func (l *Logger) log(r *clog2.Record) { l.logAt(r, l.rank.Wtime()) }

// logAt appends r stamped at t, a reading of this rank's clock; with the
// spill on, the bytes are written through before the call returns.
func (l *Logger) logAt(r *clog2.Record, t float64) {
	r.Time = t
	r.Rank = int32(l.rank.ID())
	rec := l.append(r)
	if !l.spChecked {
		// EnableSpill happens before any logging (configuration phase),
		// so the prefix can be cached on first use.
		l.spPrefix = l.g.SpillPrefix()
		l.spChecked = true
	}
	if l.spPrefix != "" {
		l.spillRecord(rec)
	}
}

// append encodes r at the end of the last page, or of a fresh one when the
// longest timed record might not fit, and returns the bytes it took.
func (l *Logger) append(r *clog2.Record) []byte {
	last := len(l.pages) - 1
	if last < 0 || pageSize-len(l.pages[last]) < clog2.MaxTimedRecord {
		l.pages = append(l.pages, pagePool.Get().(*[pageSize]byte)[:0])
		last++
	}
	p := l.pages[last]
	at := len(p)
	// A timed record always has an encoding: there is no error to return.
	p, _ = clog2.AppendRecord(p, r)
	l.pages[last], l.n = p, l.n+1
	return p[at:]
}

// StateStart logs the beginning of an instance of state s. cargo is
// truncated to the MPE 40-byte limit.
func (l *Logger) StateStart(s StateID, cargo string) {
	if l.g.enabled {
		l.openStates = append(l.openStates, s)
		r := clog2.Record{Type: clog2.RecCargoEvt, ID: startEtype(s)}
		r.SetCargo(cargo)
		l.log(&r)
	}
}

// StateStartBytes is StateStart taking the cargo as bytes — the form the
// Pilot call sites use with the Cargo builder, keeping the hot path free
// of string construction.
func (l *Logger) StateStartBytes(s StateID, cargo []byte) {
	if l.g.enabled {
		l.openStates = append(l.openStates, s)
		r := clog2.Record{Type: clog2.RecCargoEvt, ID: startEtype(s)}
		r.SetCargoBytes(cargo)
		l.log(&r)
	}
}

// StateEnd logs the end of an instance of state s.
func (l *Logger) StateEnd(s StateID, cargo string) {
	if l.g.enabled {
		l.popOpenState()
		r := clog2.Record{Type: clog2.RecCargoEvt, ID: endEtype(s)}
		r.SetCargo(cargo)
		l.log(&r)
	}
}

// StateEndBytes is StateEnd taking the cargo as bytes.
func (l *Logger) StateEndBytes(s StateID, cargo []byte) {
	if l.g.enabled {
		l.popOpenState()
		r := clog2.Record{Type: clog2.RecCargoEvt, ID: endEtype(s)}
		r.SetCargoBytes(cargo)
		l.log(&r)
	}
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
	if l.g.enabled {
		r := clog2.Record{Type: clog2.RecCargoEvt, ID: soloEtype(e)}
		r.SetCargo(cargo)
		l.log(&r)
	}
}

// EventBytes is Event taking the cargo as bytes.
func (l *Logger) EventBytes(e EventID, cargo []byte) {
	if l.g.enabled {
		r := clog2.Record{Type: clog2.RecCargoEvt, ID: soloEtype(e)}
		r.SetCargoBytes(cargo)
		l.log(&r)
	}
}

// LogSend records the sending half of a message arrow. The converter
// pairs it with the receiving half that carries the same (peer, tag) —
// "MPE_Log_send and MPE_Log_receive should be called in pairs with
// matching tag number and length of data".
func (l *Logger) LogSend(dst, tag, size int) { l.logMsg(clog2.DirSend, dst, tag, size, 0, nil) }

// LogSendEvent is LogSend and then the solo event e with cargo, the bubble
// beside a sent message: nothing blocks between them, so one reading.
func (l *Logger) LogSendEvent(dst, tag, size int, e EventID, cargo []byte) {
	l.logMsg(clog2.DirSend, dst, tag, size, e, cargo)
}

// LogRecvEvent logs the receiving half of a message arrow and then its
// arrival bubble, the solo event e with cargo, at one clock reading.
func (l *Logger) LogRecvEvent(src, tag, size int, e EventID, cargo []byte) {
	l.logMsg(clog2.DirRecv, src, tag, size, e, cargo)
}

// logMsg logs a message half and, unless e is 0, the event e behind it
// at the same reading.
func (l *Logger) logMsg(dir uint8, peer, tag, size int, e EventID, cargo []byte) {
	if !l.g.enabled {
		return
	}
	t := l.rank.Wtime()
	l.logAt(&clog2.Record{Type: clog2.RecMsgEvt, Dir: dir, Aux1: int32(peer), Aux2: int32(tag), Aux3: int32(size)}, t)
	if e != 0 {
		r := clog2.Record{Type: clog2.RecCargoEvt, ID: soloEtype(e)}
		r.SetCargoBytes(cargo)
		l.logAt(&r, t)
	}
}

// Clock-sync and wrap-up message tags within mpi.CtxLog.
const (
	tagSyncPing = iota
	tagSyncReply
	tagSyncOffset
	tagPage // one page of a rank's log
	tagEnd  // the end of a rank's log: its record count
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
		r := clog2.Record{Type: clog2.RecCargoEvt, ID: endEtype(l.openStates[i])}
		r.SetCargo(SyntheticEndCargo)
		l.log(&r)
	}
	l.openStates = nil

	offset, err := l.syncClocks()
	if err != nil {
		return nil, fmt.Errorf("mpe: clock sync: %w", err)
	}
	if offset != 0 {
		l.shift(offset)
	}
	// The timeshift record is metadata stamped at wrap-up; it bypasses the
	// spill (an abort can no longer lose the log at this point anyway).
	l.append(&clog2.Record{Type: clog2.RecTimeShift, Time: l.rank.Wtime() - offset, Rank: int32(l.rank.ID()), Shift: offset})

	if l.rank.ID() != 0 {
		// A message a page, as it lies (at most pageSize bytes: under the
		// eager limit, so no send waits), then the record count. The pages
		// are the transport's from the first Send: dropped, not pooled.
		for i := 0; i < len(l.pages) && err == nil; i++ {
			err = l.rank.SendCtx(mpi.CtxLog, 0, tagPage, l.pages[i])
		}
		if err == nil {
			err = l.rank.SendCtx(mpi.CtxLog, 0, tagEnd, binary.LittleEndian.AppendUint64(nil, uint64(l.n)))
		}
		l.pages, l.n = nil, 0
		l.closeSpill(err == nil) // on success the merged log supersedes the spill
		return nil, err
	}

	// Rank 0: its own log, the definitions leading its first block, then
	// every other rank's in rank order, each cut into blocks.
	if w == nil {
		return nil, fmt.Errorf("mpe: rank 0 Finish needs an output writer")
	}
	cw, err := clog2.NewWriter(w, l.rank.Size())
	if err != nil {
		return nil, err
	}
	cut := clog2.NewCut(0, l.rank.Size(), blockRecords, l.g.defRecords())
	for i := 0; i < len(l.pages) && err == nil; i++ {
		err = cut.Add(l.pages[i])
	}
	if err == nil {
		err = cw.WriteCut(cut)
	}
	l.release()
	for src := 1; src < l.rank.Size() && err == nil; src++ {
		err = l.collect(cw, src)
	}
	if err == nil {
		err = cw.Close()
	}
	l.closeSpill(err == nil)
	if err != nil {
		return nil, err
	}
	if prefix := l.g.SpillPrefix(); prefix != "" {
		os.Remove(spillDefsPath(prefix))
	}
	return cw.Table(), nil
}

// blockRecords is the most records the merge, salvage and the defs spill
// put in a block, so that a block's time fence covers a stretch of a rank's
// run (clog2.Table.Select), well inside clog2.MaxBlockRecords. A rank of
// the thumbnail demo logs about 4 500 records: at 512 it is nine
// blocks and a 1 % window visits about one a rank, where one block a rank
// had every window visit them all (idx.visited_ratio 1.0). A block costs 66
// bytes (header, end marker, table entry), 0.4 % of 512 records.
const blockRecords = 512

// collect writes rank src's log, its pages up to the end message, which
// must count their records. All is checked before a byte is written, so a
// log refused leaves nothing of itself in the merged file. The pages are
// held in rank 0's emptied l.pages, for release to pool them.
func (l *Logger) collect(cw *clog2.Writer, src int) error {
	cut := clog2.NewCut(int32(src), l.rank.Size(), blockRecords, nil)
	for {
		m, err := l.rank.RecvCtx(mpi.CtxLog, src, mpi.AnyTag)
		if err != nil {
			return fmt.Errorf("mpe: collecting rank %d log: %w", src, err)
		}
		switch {
		case m.Tag != tagEnd:
			l.pages = append(l.pages, m.Data)
			err = cut.Add(m.Data)
		case len(m.Data) != 8:
			err = fmt.Errorf("an end message of %d bytes, not a record count", len(m.Data))
		case binary.LittleEndian.Uint64(m.Data) != uint64(cut.Records()):
			err = fmt.Errorf("it counts %d records, its pages hold %d", binary.LittleEndian.Uint64(m.Data), cut.Records())
		}
		if err != nil {
			return fmt.Errorf("mpe: parsing rank %d log: %w", src, err)
		}
		if m.Tag == tagEnd {
			err = cw.WriteCut(cut)
			l.release()
			return err
		}
	}
}

// shift moves every record logged onto rank 0's timebase, in place: a
// timed record's time is the 8 bytes behind its type byte.
func (l *Logger) shift(offset float64) {
	for _, p := range l.pages {
		for n := 0; len(p) > 0; p = p[n:] {
			t := math.Float64frombits(binary.LittleEndian.Uint64(p[1:]))
			binary.LittleEndian.PutUint64(p[1:], math.Float64bits(t-offset))
			if n = clog2.TimedSize(p); n == 0 {
				break
			}
		}
	}
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
			bestRTT, bestOff := math.Inf(1), 0.0
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
				if rtt < bestRTT {
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
