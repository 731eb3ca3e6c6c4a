package mpe

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/clog2"
	"repro/internal/mpi"
)

// readV2Fragment scans a v2 spill fragment and decodes every segment's
// records; missing file or no records yields an empty slice.
func readV2Fragment(t testing.TB, path string) []clog2.Record {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	segs, _ := clog2.ScanSegments(data)
	var recs []clog2.Record
	for _, s := range segs {
		b, err := clog2.DecodeBlockPayload(s.Payload, s.Rank)
		if err != nil {
			t.Fatalf("segment seq=%d undecodable: %v", s.Seq, err)
		}
		recs = append(recs, b.Records...)
	}
	return recs
}

func TestSpillWritesThrough(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "run.clog2")
	w := mpi.NewWorld(2, mpi.Options{})
	g := NewGroup(w, true)
	g.EnableSpill(prefix)
	sid := g.DescribeState("PI_Write", "green")
	if err := g.SpillDefs(); err != nil {
		t.Fatal(err)
	}

	l := g.Logger(1)
	l.StateStart(sid, "line: a.go:1")
	l.StateEnd(sid, "")
	if err := l.SpillError(); err != nil {
		t.Fatal(err)
	}

	// The spill is already on disk, before any Finish — and it is a clean
	// segment stream.
	data, err := os.ReadFile(prefix + ".rank1.spill")
	if err != nil {
		t.Fatal(err)
	}
	if segs, stats := clog2.ScanSegments(data); len(segs) == 0 || stats.BytesQuarantined != 0 {
		t.Fatalf("open spill scans as %d segment(s), %+v", len(segs), stats)
	}
	if n := len(readV2Fragment(t, prefix+".rank1.spill")); n != 2 {
		t.Fatalf("spill has %d records, want 2", n)
	}
}

func TestSalvageMergesFragments(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "run.clog2")
	w := mpi.NewWorld(3, mpi.Options{})
	g := NewGroup(w, true)
	g.EnableSpill(prefix)
	sid := g.DescribeState("PI_Read", "red")
	if err := g.SpillDefs(); err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 3; rank++ {
		l := g.Logger(rank)
		for i := 0; i < rank+1; i++ {
			l.StateStart(sid, "x")
			l.StateEnd(sid, "")
		}
		l.LogSend(0, 1, 8)
	}
	// Abort: no Finish ever runs; salvage straight from the fragments.
	w.Rank(0).Abort(1)

	outPath := prefix + ".salvaged"
	out, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := SalvageWithReport(prefix, out)
	if err != nil {
		t.Fatal(err)
	}
	out.Close()
	if rep.RanksRecovered != 3 {
		t.Fatalf("salvaged %d ranks, want 3", rep.RanksRecovered)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	_, recs := logRecords(t, bytes.NewReader(data))
	checkTable(t, "salvaged log", data, nil)
	if n := countType(recs, clog2.RecStateDef); n != 1 {
		t.Fatalf("defs lost: %d", n)
	}
	var cargo, msgs int
	for _, rec := range recs {
		switch rec.Type {
		case clog2.RecCargoEvt:
			cargo++
		case clog2.RecMsgEvt:
			msgs++
		}
	}
	if cargo != 2*(1+2+3) || msgs != 3 {
		t.Fatalf("salvaged %d cargo + %d msg records", cargo, msgs)
	}
}

// Salvage with neither a defs spill nor any rank fragment has nothing to
// work with and must say so. (A missing defs spill alone degrades to
// synthesized definitions — see salvage_test.go.)
func TestSalvageNothingToSalvage(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "missing")
	out, err := os.Create(prefix + ".out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if _, err := SalvageWithReport(prefix, out); err == nil {
		t.Fatal("salvage with nothing on disk succeeded")
	}
}

func TestCleanFinishRemovesSpills(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "run.clog2")
	w := mpi.NewWorld(2, mpi.Options{})
	g := NewGroup(w, true)
	g.EnableSpill(prefix)
	sid := g.DescribeState("S", "red")
	if err := g.SpillDefs(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	errs := w.Run(func(r *mpi.Rank) error {
		l := g.Logger(r.ID())
		l.StateStart(sid, "")
		l.StateEnd(sid, "")
		if r.ID() == 0 {
			return l.Finish(&buf)
		}
		return l.Finish(nil)
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	for _, path := range []string{
		prefix + ".defs.spill", prefix + ".rank0.spill", prefix + ".rank1.spill",
	} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("spill %s survives a clean finish", path)
		}
	}
	if _, err := clog2.ScanTable(&buf); err != nil {
		t.Fatalf("merged log unreadable: %v", err)
	}
}

func TestRemoveSpills(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "x")
	for _, p := range []string{spillDefsPath(prefix), spillRankPath(prefix, 0), spillRankPath(prefix, 1)} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	RemoveSpills(prefix)
	for _, p := range []string{spillDefsPath(prefix), spillRankPath(prefix, 0), spillRankPath(prefix, 1)} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s not removed", p)
		}
	}
}

// BenchmarkSpillStatePair times a logged state pair with the spill on: two
// records, each framed, checksummed and written through to the rank's
// spill file before its call returns. Next to the root
// BenchmarkMPE_StateStartEnd it is what RobustLog costs a Pilot call.
func BenchmarkSpillStatePair(b *testing.B) {
	g := NewGroup(mpi.NewWorld(1, mpi.Options{}), true)
	g.EnableSpill(filepath.Join(b.TempDir(), "run.clog2"))
	sid := g.DescribeState("PI_Write", "green")
	if err := g.SpillDefs(); err != nil {
		b.Fatal(err)
	}
	l := g.Logger(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.StateStart(sid, "line: x.go:1")
		l.StateEnd(sid, "")
		if i%1024 == 1023 {
			l.Discard() // the arena's steady state, as Finish leaves it
		}
	}
	b.StopTimer()
	if err := l.SpillError(); err != nil {
		b.Fatal(err)
	}
	l.closeSpill(true)
}

// SpillError reports the first spill-write failure, if any (diagnostics).
func (l *Logger) SpillError() error { return l.spErr }

// More definitions than a block holds records are cut into blocks of
// blockRecords wherever they are written: in the defs spill, which salvage
// reads back whole, and at the head of rank 0's log in Finish.
func TestDefinitionsAreCutIntoBlocks(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "run.clog2")
	w := mpi.NewWorld(1, mpi.Options{})
	g := NewGroup(w, true)
	g.EnableSpill(prefix)
	const states = 2*blockRecords + 3
	for i := 0; i < states; i++ {
		g.DescribeState("S", "red")
	}
	if err := g.SpillDefs(); err != nil {
		t.Fatal(err)
	}
	if defs, numRanks, note := loadSpillDefs(prefix); len(defs) != states || numRanks != 1 || note != "" {
		t.Fatalf("the defs spill reads back %d defs of %d ranks (%q), want %d", len(defs), numRanks, note, states)
	}
	var buf bytes.Buffer
	errs := w.Run(func(r *mpi.Rank) error { return g.Logger(0).Finish(&buf) })
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	table, err := clog2.ScanTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var defs []int32
	for _, b := range table.Blocks {
		defs = append(defs, b.Defs)
		if b.Records > blockRecords {
			t.Fatalf("a block of %d records", b.Records)
		}
	}
	if want := []int32{blockRecords, blockRecords, 3}; !slices.Equal(defs, want) {
		t.Fatalf("the blocks hold %v definitions, want %v", defs, want)
	}
}
