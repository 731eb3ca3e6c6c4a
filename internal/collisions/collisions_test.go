package collisions

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jumpshot"
	"repro/vis"
)

func TestGenerateCSVDeterministicAndParseable(t *testing.T) {
	a := GenerateCSV(500, 1)
	b := GenerateCSV(500, 1)
	c := GenerateCSV(500, 2)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed differs")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds identical")
	}
	recs, err := ParseSegment(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 500 {
		t.Fatalf("parsed %d rows", len(recs))
	}
	for _, r := range recs {
		if r.Year < MinYear || r.Year > MaxYear || r.Severity < 1 || r.Severity > 5 {
			t.Fatalf("implausible record %+v", r)
		}
	}
}

func TestParseSegmentErrors(t *testing.T) {
	cases := []string{
		"1,2,3\n",
		"a,b,c,d,e,f\n",
		"1,2,3,4,5,6,7\n",
	}
	for _, c := range cases {
		if _, err := ParseSegment([]byte(c)); err == nil {
			t.Errorf("ParseSegment(%q) succeeded", c)
		}
	}
	// Header-only and empty inputs parse to zero rows.
	if recs, err := ParseSegment([]byte("id,year,severity,vehicles,fatalities,region\n")); err != nil || len(recs) != 0 {
		t.Errorf("header-only parse: %v %v", recs, err)
	}
}

func TestSegmentOffsetsCoverEverything(t *testing.T) {
	data := GenerateCSV(1000, 3)
	for _, n := range []int{1, 2, 3, 7, 16} {
		offs := SegmentOffsets(data, n)
		if len(offs) != n {
			t.Fatalf("n=%d: %d segments", n, len(offs))
		}
		total := 0
		for i, o := range offs {
			recs, err := ParseSegment(data[o[0]:o[1]])
			if err != nil {
				t.Fatalf("n=%d segment %d: %v", n, i, err)
			}
			total += len(recs)
			if i > 0 && o[0] != offs[i-1][1] {
				t.Fatalf("n=%d: gap between segments %d and %d", n, i-1, i)
			}
		}
		if total != 1000 {
			t.Fatalf("n=%d: segments cover %d rows", n, total)
		}
	}
}

func TestRunQueryFilters(t *testing.T) {
	recs := []Record{
		{ID: 1, Year: 2000, Severity: 1, Vehicles: 2, Fatalities: 0},
		{ID: 2, Year: 2005, Severity: 4, Vehicles: 1, Fatalities: 2},
		{ID: 3, Year: 2010, Severity: 4, Vehicles: 3, Fatalities: 1},
	}
	res := RunQuery(recs, Query{Severity: 4, YearFrom: 2000, YearTo: 2007, Cost: 0})
	if res.Rows != 1 || res.Fatalities != 2 || res.Vehicles != 1 {
		t.Fatalf("filtered result %+v", res)
	}
	all := RunQuery(recs, Query{YearFrom: MinYear, YearTo: MaxYear, Cost: 0})
	if all.Rows != 3 || all.Fatalities != 3 {
		t.Fatalf("unfiltered result %+v", all)
	}
}

func testCfg(t *testing.T, workers int, services string) Config {
	t.Helper()
	dir := t.TempDir()
	return Config{
		Workers:   workers,
		Rows:      4000,
		Seed:      7,
		QueryCost: 10,
		Core: core.Config{
			Services:     services,
			CheckLevel:   3,
			JumpshotPath: filepath.Join(dir, "col.clog2"),
			NativePath:   filepath.Join(dir, "col.log"),
			ArrowSpread:  -1,
		},
	}
}

// All three variants must give identical answers: the bugs are
// parallelization bugs, not correctness bugs.
func TestVariantsAgree(t *testing.T) {
	fixed, err := RunFixed(testCfg(t, 3, ""))
	if err != nil {
		t.Fatal(err)
	}
	instA, err := RunInstanceA(testCfg(t, 3, ""))
	if err != nil {
		t.Fatal(err)
	}
	instB, err := RunInstanceB(testCfg(t, 3, ""))
	if err != nil {
		t.Fatal(err)
	}
	if len(fixed.Answers) == 0 {
		t.Fatal("no answers")
	}
	for qi := range fixed.Answers {
		a, b, c := fixed.Answers[qi], instA.Answers[qi], instB.Answers[qi]
		if a.Rows != b.Rows || a.Rows != c.Rows ||
			a.Fatalities != b.Fatalities || a.Fatalities != c.Fatalities {
			t.Fatalf("query %d disagrees: %+v %+v %+v", qi, a, b, c)
		}
		if math.Abs(a.Checksum-b.Checksum) > 1e-6 || math.Abs(a.Checksum-c.Checksum) > 1e-6 {
			t.Fatalf("query %d checksums disagree", qi)
		}
	}
	// Sanity: the whole dataset is seen.
	var rows int
	for qi := 0; qi < 5; qi++ { // severities 1..5 partition all rows
		rows += fixed.Answers[qi].Rows
	}
	if rows != 4000 {
		t.Fatalf("severity queries cover %d rows, want 4000", rows)
	}
}

// Workers answer different segments, so partials must differ from the
// merged result — guards against every worker scanning the whole file.
func TestWorkDivision(t *testing.T) {
	one, err := RunFixed(testCfg(t, 1, ""))
	if err != nil {
		t.Fatal(err)
	}
	four, err := RunFixed(testCfg(t, 4, ""))
	if err != nil {
		t.Fatal(err)
	}
	for qi := range one.Answers {
		if one.Answers[qi].Rows != four.Answers[qi].Rows {
			t.Fatalf("query %d: %d rows with 1 worker, %d with 4", qi,
				one.Answers[qi].Rows, four.Answers[qi].Rows)
		}
	}
}

// The Fig. 4 metric: instance A's query-phase busy overlap collapses
// toward zero while the fixed program's workers genuinely overlap.
func TestInstanceASerializesQueries(t *testing.T) {
	cfg := testCfg(t, 3, "j")
	cfg.Rows = 6000
	cfg.QueryCost = 2500
	fixed, err := RunFixed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fFixed, _, err := vis.ConvertFile(cfg.Core.JumpshotPath, vis.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}

	cfgA := testCfg(t, 3, "j")
	cfgA.Rows = 6000
	cfgA.QueryCost = 2500
	instA, err := RunInstanceA(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	fA, _, err := vis.ConvertFile(cfgA.Core.JumpshotPath, vis.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}

	workers := []int{1, 2, 3}
	// Query phase = the tail of the run after the read phase.
	qFrac := func(f *vis.File, res *Result) float64 {
		total := res.ReadPhase + res.QueryPhase
		t0 := f.Start + (f.End-f.Start)*float64(res.ReadPhase)/float64(total)
		return jumpshot.BusyOverlapRatio(f, workers, t0, f.End)
	}
	rFixed := qFrac(fFixed, fixed)
	rA := qFrac(fA, instA)
	if rA >= rFixed {
		t.Errorf("instance A overlap %.3f not below fixed %.3f", rA, rFixed)
	}
	if rA > 0.45 {
		t.Errorf("instance A overlap %.3f; expected near-serialized execution", rA)
	}
}

// The Fig. 5 metric: instance B's read phase dwarfs the fixed program's,
// and its total barely improves with more workers.
func TestInstanceBMainDoesAllTheReading(t *testing.T) {
	mk := func(w int) Config {
		c := testCfg(t, w, "")
		c.Rows = 20000
		c.QueryCost = 1
		// Deterministic read cost (think time): PI_MAIN parses everything
		// itself in instance B, so its runtime is pinned by this sleep
		// regardless of scheduler noise.
		c.ReadSleepPerRow = 10 * time.Microsecond
		return c
	}
	b2, err := RunInstanceB(mk(2))
	if err != nil {
		t.Fatal(err)
	}
	b4, err := RunInstanceB(mk(4))
	if err != nil {
		t.Fatal(err)
	}
	// Total runtime nearly flat as workers scale.
	ratio := float64(b2.Elapsed) / float64(b4.Elapsed)
	if ratio > 1.6 || ratio < 0.6 {
		t.Errorf("instance B scaled with workers: 2w=%v 4w=%v", b2.Elapsed, b4.Elapsed)
	}
	// Read phase dominates.
	if b4.ReadPhase < b4.QueryPhase {
		t.Errorf("instance B read phase %v not dominant over query phase %v", b4.ReadPhase, b4.QueryPhase)
	}
}

func TestFlattenRoundtrip(t *testing.T) {
	recs, err := ParseSegment(GenerateCSV(50, 9))
	if err != nil {
		t.Fatal(err)
	}
	back := unflattenRecords(flattenRecords(recs))
	if len(back) != len(recs) {
		t.Fatalf("roundtrip %d vs %d", len(back), len(recs))
	}
	for i := range recs {
		if recs[i] != back[i] {
			t.Fatalf("record %d changed: %+v vs %+v", i, recs[i], back[i])
		}
	}
}
