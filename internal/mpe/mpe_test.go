package mpe

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/clog2"
	"repro/internal/mpi"
)

// LogRecv logs a receiving half alone, as LogSend logs a sending one: what
// the tests log one with, where a Pilot call logs it with its bubble
// (LogRecvEvent).
func (l *Logger) LogRecv(src, tag, size int) { l.logMsg(clog2.DirRecv, src, tag, size, 0, nil) }

// classify reads an etype the way every reader of a log does when no
// definition names it.
func classify(etype int32) (clog2.EtypeKind, int32) {
	var byParity clog2.Etypes
	return byParity.Classify(etype)
}

func TestEtypeMapping(t *testing.T) {
	s := StateID(7)
	if k, id := classify(startEtype(s)); k != clog2.EtypeStart || id != int32(s) {
		t.Errorf("classify(start(7)) = %v %v", k, id)
	}
	if k, id := classify(endEtype(s)); k != clog2.EtypeEnd || id != int32(s) {
		t.Errorf("classify(end(7)) = %v %v", k, id)
	}
	e := EventID(3)
	if k, id := classify(soloEtype(e)); k != clog2.EtypeSolo || id != soloEtype(e) {
		t.Errorf("classify(solo(3)) = %v %v", k, id)
	}
}

func TestDisabledGroupLogsNothing(t *testing.T) {
	w := mpi.NewWorld(1, mpi.Options{})
	g := NewGroup(w, false)
	l := g.Logger(0)
	sid := g.DescribeState("PI_Read", "red")
	l.StateStart(sid, "x")
	l.StateEnd(sid, "")
	l.LogSend(0, 1, 2)
	l.LogRecv(0, 1, 2)
	l.Event(g.DescribeEvent("e", "yellow"), "")
	if l.Len() != 0 {
		t.Fatalf("disabled logger buffered %d records", l.Len())
	}
	if g.enabled || l.Enabled() {
		t.Fatal("Enabled() reports true for disabled group")
	}
}

// End-to-end: two ranks log states and a message, Finish merges to one
// CLOG-2 file containing definitions, both blocks, and timeshifts.
func TestFinishMergesAllRanks(t *testing.T) {
	w := mpi.NewWorld(3, mpi.Options{})
	g := NewGroup(w, true)
	sidRead := g.DescribeState("PI_Read", "red")
	sidWrite := g.DescribeState("PI_Write", "green")
	evArrive := g.DescribeEvent("MsgArrival", "yellow")

	var out bytes.Buffer
	errs := w.Run(func(r *mpi.Rank) error {
		l := g.Logger(r.ID())
		switch r.ID() {
		case 0:
			l.StateStart(sidWrite, "line: 10")
			l.LogSend(1, 5, 64)
			if err := r.Send(1, 5, make([]byte, 64)); err != nil {
				return err
			}
			l.StateEnd(sidWrite, "")
		case 1:
			l.StateStart(sidRead, "line: 20")
			if _, err := r.Recv(0, 5); err != nil {
				return err
			}
			l.LogRecv(0, 5, 64)
			l.Event(evArrive, "chan: C1")
			l.StateEnd(sidRead, "")
		}
		var dst *bytes.Buffer
		if r.ID() == 0 {
			dst = &out
		}
		if dst == nil {
			return l.Finish(nil)
		}
		return l.Finish(dst)
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}

	numRanks, recs := logRecords(t, &out)
	if numRanks != 3 {
		t.Fatalf("NumRanks = %d", numRanks)
	}
	if got := countType(recs, clog2.RecStateDef); got != 2 {
		t.Fatalf("state defs = %d, want 2", got)
	}
	if got := countType(recs, clog2.RecEventDef); got != 1 {
		t.Fatalf("event defs = %d, want 1", got)
	}
	// Records of every rank (rank 2 logged nothing but still has a timeshift).
	ranksSeen := map[int32]bool{}
	var sends, recvs, shifts, cargo int
	for _, rec := range recs {
		ranksSeen[rec.Rank] = true
		switch rec.Type {
		case clog2.RecMsgEvt:
			if rec.Dir == clog2.DirSend {
				sends++
			} else {
				recvs++
			}
		case clog2.RecTimeShift:
			shifts++
		case clog2.RecCargoEvt:
			cargo++
		}
	}
	if len(ranksSeen) != 3 {
		t.Fatalf("records of ranks %v, want all 3", ranksSeen)
	}
	if sends != 1 || recvs != 1 {
		t.Fatalf("sends=%d recvs=%d, want 1/1", sends, recvs)
	}
	if shifts != 3 {
		t.Fatalf("timeshift records = %d, want 3", shifts)
	}
	if cargo != 5 { // 2 starts + 2 ends + 1 solo
		t.Fatalf("cargo events = %d, want 5", cargo)
	}
}

// With skewed rank clocks, Finish must land all timestamps on rank 0's
// timebase: the receive of a message may never appear earlier than its
// send by more than the sync error.
func TestFinishSynchronisesClocks(t *testing.T) {
	base := clock.NewReal()
	w := mpi.NewWorld(2, mpi.Options{
		Clocks: []clock.Source{
			base,
			clock.NewSkewed(base, -2.5, 0, 0), // rank 1's clock is 2.5 s behind
		},
	})
	g := NewGroup(w, true)
	sid := g.DescribeState("PI_Write", "green")

	var out bytes.Buffer
	errs := w.Run(func(r *mpi.Rank) error {
		l := g.Logger(r.ID())
		if r.ID() == 0 {
			l.LogSend(1, 1, 8)
			if err := r.Send(1, 1, make([]byte, 8)); err != nil {
				return err
			}
			l.StateStart(sid, "")
			l.StateEnd(sid, "")
			return l.Finish(&out)
		}
		if _, err := r.Recv(0, 1); err != nil {
			return err
		}
		l.LogRecv(0, 1, 8)
		return l.Finish(nil)
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}

	_, recs := logRecords(t, &out)
	var sendT, recvT float64 = -1, -1
	var shift1 float64
	for _, rec := range recs {
		if rec.Type == clog2.RecMsgEvt && rec.Dir == clog2.DirSend {
			sendT = rec.Time
		}
		if rec.Type == clog2.RecMsgEvt && rec.Dir == clog2.DirRecv {
			recvT = rec.Time
		}
		if rec.Type == clog2.RecTimeShift && rec.Rank == 1 {
			shift1 = rec.Shift
		}
	}
	if sendT < 0 || recvT < 0 {
		t.Fatal("missing msg events")
	}
	if math.Abs(shift1-(-2.5)) > 0.05 {
		t.Fatalf("rank 1 timeshift = %v, want ~-2.5", shift1)
	}
	if recvT < sendT-0.05 {
		t.Fatalf("after sync, recv time %v precedes send time %v", recvT, sendT)
	}
}

func TestFinishRankZeroNeedsWriter(t *testing.T) {
	w := mpi.NewWorld(1, mpi.Options{})
	g := NewGroup(w, true)
	if err := g.Logger(0).Finish(nil); err == nil {
		t.Fatal("rank 0 Finish(nil) succeeded")
	}
}

// The paper's PI_Abort problem: once the world is aborted, the MPE log
// cannot be collected.
func TestLogLostOnAbort(t *testing.T) {
	w := mpi.NewWorld(2, mpi.Options{})
	g := NewGroup(w, true)
	sid := g.DescribeState("PI_Write", "green")
	g.Logger(0).StateStart(sid, "")
	w.Rank(1).Abort(3)
	var out bytes.Buffer
	err := g.Logger(0).Finish(&out)
	if !errors.Is(err, mpi.ErrAborted) {
		t.Fatalf("Finish after abort: %v, want ErrAborted", err)
	}
	if out.Len() > 0 {
		// A partial header may have been written before the failure was
		// detected, but it must not parse as a complete file.
		if _, err := clog2.ScanTable(bytes.NewReader(out.Bytes())); err == nil {
			t.Fatal("aborted run still produced a readable log")
		}
	}
}

func TestCargoTruncatedAtLimit(t *testing.T) {
	w := mpi.NewWorld(1, mpi.Options{})
	g := NewGroup(w, true)
	sid := g.DescribeState("S", "red")
	l := g.Logger(0)
	l.StateStart(sid, strings.Repeat("y", 100))
	var out bytes.Buffer
	if err := l.Finish(&out); err != nil {
		t.Fatal(err)
	}
	_, recs := logRecords(t, &out)
	for _, rec := range recs {
		if rec.Type == clog2.RecCargoEvt && len(rec.CargoText()) > clog2.MaxCargo {
			t.Fatalf("cargo %d bytes exceeds MPE limit", len(rec.CargoText()))
		}
	}
}

func TestTimestampsNondecreasingPerRank(t *testing.T) {
	w := mpi.NewWorld(1, mpi.Options{})
	g := NewGroup(w, true)
	sid := g.DescribeState("S", "red")
	l := g.Logger(0)
	for i := 0; i < 100; i++ {
		l.StateStart(sid, "")
		l.StateEnd(sid, "")
	}
	var out bytes.Buffer
	if err := l.Finish(&out); err != nil {
		t.Fatal(err)
	}
	_, recs := logRecords(t, &out)
	prev := -1.0
	for _, rec := range recs {
		if rec.Type == clog2.RecStateDef || rec.Type == clog2.RecEventDef {
			continue
		}
		if rec.Time < prev {
			t.Fatalf("time went backwards: %v after %v", rec.Time, prev)
		}
		prev = rec.Time
	}
}

func TestFinishFileWritesToDisk(t *testing.T) {
	w := mpi.NewWorld(2, mpi.Options{})
	g := NewGroup(w, true)
	path := t.TempDir() + "/test.clog2"
	errs := w.Run(func(r *mpi.Rank) error {
		l := g.Logger(r.ID())
		if r.ID() == 0 {
			return l.FinishFile(path)
		}
		return l.FinishFile("ignored-on-nonzero-ranks")
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	b, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clog2.ScanTable(bytes.NewReader(b)); err != nil {
		t.Fatalf("written file unreadable: %v", err)
	}
}

func readFile(path string) ([]byte, error) { return os.ReadFile(path) }

// logRecords reads the log r holds through Each: the header's rank count
// and every record, in file order.
func logRecords(t testing.TB, r io.Reader) (numRanks int, recs []clog2.Record) {
	t.Helper()
	br, err := clog2.NewBlockReader(r)
	if err == nil {
		err = br.Each(func(run clog2.Block) error { recs = append(recs, run.Records...); return nil })
	}
	if err != nil {
		t.Fatal(err)
	}
	return br.NumRanks(), recs
}

// countType is how many of recs are of type typ.
func countType(recs []clog2.Record, typ clog2.RecType) (n int) {
	for i := range recs {
		if recs[i].Type == typ {
			n++
		}
	}
	return n
}

// Regression at the ID-space boundary: state etypes must never reach
// soloBase, or starts/ends would collide with solo event etypes and
// silently corrupt the log.
func TestDescribeStateBoundaryGuard(t *testing.T) {
	// The arithmetic the guard protects: the last legal ID's etypes stay
	// below soloBase, the first illegal ID's start etype IS a solo etype.
	if e := endEtype(StateID(MaxStates)); e >= clog2.SoloBase {
		t.Fatalf("endEtype(MaxStates) = %d, reaches SoloBase %d", e, clog2.SoloBase)
	}
	if k, _ := classify(startEtype(StateID(MaxStates + 1))); k != clog2.EtypeSolo {
		t.Fatalf("startEtype(MaxStates+1) = %d should collide with solo etypes", startEtype(StateID(MaxStates+1)))
	}

	w := mpi.NewWorld(1, mpi.Options{})
	g := NewGroup(w, true)
	// Jump to one below the boundary, then allocate the last legal ID.
	g.states = make([]def, MaxStates-1)
	sid := g.DescribeState("last-legal", "red")
	if sid != StateID(MaxStates) {
		t.Fatalf("last legal StateID = %d, want %d", sid, MaxStates)
	}
	if k, got := classify(startEtype(sid)); k != clog2.EtypeStart || got != int32(sid) {
		t.Fatalf("etype roundtrip broken at boundary: %v %v", k, got)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("DescribeState beyond MaxStates did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "state ID space exhausted") {
			t.Fatalf("panic message %q lacks a clear explanation", r)
		}
	}()
	g.DescribeState("one-too-many", "red")
}

func TestDescribeEventBoundary(t *testing.T) {
	// Materializing MaxEvents defs (~2 billion) is not feasible in a test,
	// so verify the boundary arithmetic the guard encodes: the last legal
	// EventID's solo etype is exactly MaxInt32, one more would overflow.
	if got := soloEtype(EventID(MaxEvents)); got != math.MaxInt32 {
		t.Fatalf("soloEtype(MaxEvents) = %d, want MaxInt32", got)
	}
	if k, _ := classify(soloEtype(EventID(MaxEvents))); k != clog2.EtypeSolo {
		t.Fatalf("solo etype roundtrip broken at boundary: %v", k)
	}
}

// A state left open at Finish (a rank that returns early) must not vanish
// or desynchronize the converter: Finish emits a synthetic end at
// log-final time, marked so the converter counts it as a nesting error.
func TestFinishSyntheticEndForOpenState(t *testing.T) {
	w := mpi.NewWorld(2, mpi.Options{})
	g := NewGroup(w, true)
	sidA := g.DescribeState("A", "red")
	sidB := g.DescribeState("B", "green")
	var out bytes.Buffer
	errs := w.Run(func(r *mpi.Rank) error {
		l := g.Logger(r.ID())
		if r.ID() == 1 {
			// Nested opens, neither ever closed.
			l.StateStart(sidA, "outer")
			l.StateStart(sidB, "inner")
			return l.Finish(nil)
		}
		l.StateStart(sidA, "x")
		l.StateEnd(sidA, "")
		return l.Finish(&out)
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	_, recs := logRecords(t, &out)
	var synth []clog2.Record
	for _, rec := range recs {
		if rec.CargoText() == SyntheticEndCargo {
			synth = append(synth, rec)
		}
	}
	if len(synth) != 2 {
		t.Fatalf("%d synthetic ends, want 2", len(synth))
	}
	// Innermost-first: B's end must precede A's end in the block.
	if k, sid := classify(synth[0].ID); k != clog2.EtypeEnd || sid != int32(sidB) {
		t.Fatalf("first synthetic end closes state %v, want inner %v", sid, sidB)
	}
	if k, sid := classify(synth[1].ID); k != clog2.EtypeEnd || sid != int32(sidA) {
		t.Fatalf("second synthetic end closes state %v, want outer %v", sid, sidA)
	}
	if synth[0].Rank != 1 || synth[1].Rank != 1 {
		t.Fatalf("synthetic ends on wrong rank: %+v", synth)
	}
}

// A matched start/end pair must leave no open-state tracking behind, so a
// clean log gains no synthetic records.
func TestFinishNoSyntheticEndWhenBalanced(t *testing.T) {
	w := mpi.NewWorld(1, mpi.Options{})
	g := NewGroup(w, true)
	sid := g.DescribeState("A", "red")
	var out bytes.Buffer
	errs := w.Run(func(r *mpi.Rank) error {
		l := g.Logger(0)
		for i := 0; i < 5; i++ {
			l.StateStart(sid, "x")
			l.StateEnd(sid, "")
		}
		return l.Finish(&out)
	})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	_, recs := logRecords(t, &out)
	for _, rec := range recs {
		if rec.CargoText() == SyntheticEndCargo {
			t.Fatalf("balanced log contains synthetic end: %+v", rec)
		}
	}
}
