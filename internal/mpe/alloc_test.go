package mpe

import (
	"io"
	"testing"

	"repro/internal/mpi"
)

// The ISSUE's acceptance gates: with logging disabled the hot-path calls
// must not allocate at all; with logging enabled they must average at
// most one allocation (the amortised arena-chunk refill every
// chunkRecords records — steady state is zero).
func allocLogger(enabled bool) (*Logger, StateID, EventID) {
	w := mpi.NewWorld(1, mpi.Options{})
	g := NewGroup(w, enabled)
	sid := g.DescribeState("PI_Write", "green")
	eid := g.DescribeEvent("MsgDeparture", "white")
	return g.Logger(0), sid, eid
}

func TestDisabledLoggingAllocFree(t *testing.T) {
	l, sid, eid := allocLogger(false)
	var cb Cargo
	cases := []struct {
		name string
		fn   func()
	}{
		{"StateStart", func() { l.StateStart(sid, "line: x.go:1") }},
		{"StateStartBytes", func() { l.StateStartBytes(sid, cb.Reset().KV("line", "x.go:1").Bytes()) }},
		{"StateEnd", func() { l.StateEnd(sid, "") }},
		{"Event", func() { l.Event(eid, "chan: C1 val: 42") }},
		{"EventBytes", func() { l.EventBytes(eid, cb.Reset().KV("chan", "C1").Bytes()) }},
		{"LogSend", func() { l.LogSend(1, 2, 64) }},
		{"LogRecv", func() { l.LogRecv(1, 2, 64) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(200, tc.fn); n != 0 {
			t.Errorf("%s with logging disabled allocates %.2f per run, want 0", tc.name, n)
		}
	}
	if l.Len() != 0 {
		t.Fatalf("disabled logger buffered %d records", l.Len())
	}
}

func TestEnabledLoggingAllocBound(t *testing.T) {
	l, sid, eid := allocLogger(true)
	var cb Cargo
	// Warm the open-state stack so its backing array stops growing.
	for i := 0; i < 8; i++ {
		l.StateStart(sid, "warm")
	}
	for i := 0; i < 8; i++ {
		l.StateEnd(sid, "")
	}
	cases := []struct {
		name string
		fn   func()
	}{
		{"StateStart+End", func() { l.StateStart(sid, "line: x.go:1"); l.StateEnd(sid, "") }},
		{"StateStartBytes+End", func() {
			l.StateStartBytes(sid, cb.Reset().KV("line", "x.go:1").Bytes())
			l.StateEnd(sid, "")
		}},
		{"Event", func() { l.Event(eid, "chan: C1 val: 42") }},
		{"EventBytes", func() { l.EventBytes(eid, cb.Reset().KV("chan", "C1").Str(" val: ").Int(42).Bytes()) }},
		{"LogSend", func() { l.LogSend(1, 2, 64) }},
		{"LogRecv", func() { l.LogRecv(1, 2, 64) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(300, tc.fn); n > 1 {
			t.Errorf("%s with logging enabled allocates %.2f per run, want <= 1", tc.name, n)
		}
	}
}

// The chunk pool makes steady-state logging allocation-free once a
// release has stocked it: run a fill/release cycle, then verify a full
// chunk's worth of appends does not allocate.
func TestArenaRecyclesChunks(t *testing.T) {
	l, sid, _ := allocLogger(true)
	for i := 0; i < chunkRecords; i++ {
		l.StateStart(sid, "fill")
		l.popOpenState()
	}
	got := l.recs.len()
	if got != chunkRecords {
		t.Fatalf("arena holds %d records, want %d", got, chunkRecords)
	}
	l.recs.release()
	if l.recs.len() != 0 {
		t.Fatalf("arena not empty after release")
	}
	if n := testing.AllocsPerRun(chunkRecords-1, func() {
		l.StateStart(sid, "refill")
		l.popOpenState()
	}); n > 0.05 {
		t.Errorf("refill after release allocates %.3f per run, want ~0 (pooled chunks)", n)
	}
}

// The inline index builder adds no steady-state allocations to the wrap-up
// merge: over 8 ranks of 1 000 state pairs (16 009 records) FinishIndexed
// allocates what Finish does. The band (1 % and 16) covers what differs
// between two set-ups of an 8-rank world, a few hundred allocations each,
// and the builder's own tables (+4 to +9 measured; +7 to +12 under the
// race detector, whose sync.Pool drops a quarter of what it is given, at
// these 50 runs a side and +2 to +17 at 25); one allocation a record would
// be a thousand times past it.
func TestFinishIndexedAllocatesWhatFinishDoes(t *testing.T) {
	merge := func(indexed bool) func() {
		return func() {
			w := mpi.NewWorld(8, mpi.Options{})
			g := NewGroup(w, true)
			sid := g.DescribeState("PI_Write", "green")
			errs := w.Run(func(r *mpi.Rank) error {
				l := g.Logger(r.ID())
				for j := 0; j < 1000; j++ {
					l.StateStart(sid, "line: bench.go:1")
					l.StateEnd(sid, "cargo")
				}
				var out io.Writer
				if r.ID() == 0 {
					out = io.Discard
				}
				if !indexed {
					return l.Finish(out)
				}
				_, err := l.FinishIndexed(out)
				return err
			})
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	plain, indexed := testing.AllocsPerRun(50, merge(false)), testing.AllocsPerRun(50, merge(true))
	t.Logf("Finish %.0f allocations a merge, FinishIndexed %.0f", plain, indexed)
	if indexed > plain*1.01+16 {
		t.Errorf("FinishIndexed allocates %.0f a merge, Finish %.0f: the index builder allocates as it goes", indexed, plain)
	}
}
