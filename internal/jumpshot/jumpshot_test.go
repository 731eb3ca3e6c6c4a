package jumpshot

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/clog2"
	"repro/internal/slog2"
)

// convertLog encodes blocks, in order, as a numRanks-rank CLOG-2 log
// through a clog2.Writer and converts it through slog2.ConvertReader.
func convertLog(t testing.TB, numRanks int, opts slog2.ConvertOptions, blocks ...clog2.Block) (*slog2.File, *slog2.Report) {
	t.Helper()
	var buf bytes.Buffer
	w, err := clog2.NewWriter(&buf, numRanks)
	for _, b := range blocks {
		if err == nil {
			err = w.WriteBlock(b.Rank, b.Records)
		}
	}
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	sf, rep, err := slog2.ConvertReader(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sf, rep
}

// makeLog builds a small SLOG-2 file: Compute [0,10] on ranks 0 and 1, a
// Read nested [2,3] on rank 1, a Write [2,2.5] on rank 0, one arrow 0->1,
// and one event bubble.
func cargoRec(time float64, rank, id int32, cargo string) clog2.Record {
	r := clog2.Record{Type: clog2.RecCargoEvt, Time: time, Rank: rank, ID: id}
	r.SetCargo(cargo)
	return r
}

func makeLog(t *testing.T) *slog2.File {
	t.Helper()
	defs := []clog2.Record{
		{Type: clog2.RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Color: "gray", Name: "Compute"},
		{Type: clog2.RecStateDef, ID: 2, Aux1: 4, Aux2: 5, Color: "red", Name: "PI_Read"},
		{Type: clog2.RecStateDef, ID: 3, Aux1: 6, Aux2: 7, Color: "green", Name: "PI_Write"},
		{Type: clog2.RecEventDef, ID: 1<<20 + 1, Color: "yellow", Name: "MsgArrival"},
	}
	r0 := []clog2.Record{
		cargoRec(0, 0, 2, "proc: PI_MAIN"),
		cargoRec(2, 0, 6, "line: x.go:5"),
		{Type: clog2.RecMsgEvt, Time: 2.1, Rank: 0, Dir: clog2.DirSend, Aux1: 1, Aux2: 9, Aux3: 100},
		{Type: clog2.RecCargoEvt, Time: 2.5, Rank: 0, ID: 7},
		{Type: clog2.RecCargoEvt, Time: 10, Rank: 0, ID: 3},
	}
	r1 := []clog2.Record{
		cargoRec(0, 1, 2, "proc: P1"),
		cargoRec(2, 1, 4, "line: y.go:9"),
		{Type: clog2.RecMsgEvt, Time: 2.8, Rank: 1, Dir: clog2.DirRecv, Aux1: 0, Aux2: 9, Aux3: 100},
		cargoRec(2.8, 1, 1<<20+1, "chan: C1"),
		{Type: clog2.RecCargoEvt, Time: 3, Rank: 1, ID: 5},
		{Type: clog2.RecCargoEvt, Time: 10, Rank: 1, ID: 3},
	}
	sf, rep := convertLog(t, 2, slog2.ConvertOptions{}, clog2.Block{Rank: 0, Records: append(defs, r0...)}, clog2.Block{Rank: 1, Records: r1})
	if rep.NestingErrors != 0 || rep.UnmatchedSends != 0 {
		t.Fatalf("bad fixture: %+v", rep)
	}
	return sf
}

func TestLegendCountsInclExcl(t *testing.T) {
	f := makeLog(t)
	entries := Legend(f, f.Start, f.End)
	byName := map[string]LegendEntry{}
	for _, e := range entries {
		byName[e.Name] = e
	}
	comp := byName["Compute"]
	if comp.Count != 2 {
		t.Errorf("Compute count = %d, want 2", comp.Count)
	}
	if math.Abs(comp.Incl-20) > 1e-9 {
		t.Errorf("Compute incl = %v, want 20", comp.Incl)
	}
	// Exclusive subtracts the nested Read (1 s) and Write (0.5 s):
	// "the inclusive time minus any nested states".
	if math.Abs(comp.Excl-18.5) > 1e-9 {
		t.Errorf("Compute excl = %v, want 18.5", comp.Excl)
	}
	read := byName["PI_Read"]
	if read.Count != 1 || math.Abs(read.Incl-1) > 1e-9 || math.Abs(read.Excl-1) > 1e-9 {
		t.Errorf("PI_Read entry %+v", read)
	}
	ev := byName["MsgArrival"]
	if ev.Count != 1 || ev.Kind != slog2.KindEvent {
		t.Errorf("MsgArrival entry %+v", ev)
	}
}

func TestLegendWindowed(t *testing.T) {
	f := makeLog(t)
	// Window [5,10]: only the two Compute states intersect.
	entries := Legend(f, 5, 10)
	for _, e := range entries {
		switch e.Name {
		case "Compute":
			if e.Count != 2 {
				t.Errorf("windowed Compute count = %d", e.Count)
			}
		case "PI_Read", "PI_Write", "MsgArrival":
			if e.Count != 0 {
				t.Errorf("windowed %s count = %d, want 0", e.Name, e.Count)
			}
		}
	}
}

func TestSortLegend(t *testing.T) {
	f := makeLog(t)
	entries := Legend(f, f.Start, f.End)
	SortLegend(entries, "incl")
	if entries[0].Name != "Compute" {
		t.Errorf("sort by incl: first = %s", entries[0].Name)
	}
	SortLegend(entries, "name")
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Name > entries[i].Name {
			t.Fatalf("sort by name broken at %d", i)
		}
	}
	text := FormatLegend(entries)
	if !strings.Contains(text, "Compute") || !strings.Contains(text, "incl") {
		t.Errorf("FormatLegend output:\n%s", text)
	}
}

func TestStatsFractions(t *testing.T) {
	f := makeLog(t)
	stats := Stats(f, 0, 10)
	if len(stats) != 2 {
		t.Fatalf("stats for %d ranks", len(stats))
	}
	compIdx := f.CategoryIndex("Compute")
	readIdx := f.CategoryIndex("PI_Read")
	if math.Abs(stats[0].Fraction[compIdx]-1.0) > 1e-9 {
		t.Errorf("rank 0 compute fraction = %v", stats[0].Fraction[compIdx])
	}
	if math.Abs(stats[1].Fraction[readIdx]-0.1) > 1e-9 {
		t.Errorf("rank 1 read fraction = %v", stats[1].Fraction[readIdx])
	}
	// Clipped window [2,3]: read occupies all of it on rank 1.
	stats = Stats(f, 2, 3)
	for _, rs := range stats {
		if rs.Rank == 1 && math.Abs(rs.Fraction[readIdx]-1.0) > 1e-9 {
			t.Errorf("clipped read fraction = %v", rs.Fraction[readIdx])
		}
	}
	if got := FormatStats(f, stats); !strings.Contains(got, "PI_Read") {
		t.Errorf("FormatStats output:\n%s", got)
	}
}

func TestCategoryFraction(t *testing.T) {
	f := makeLog(t)
	// Compute dominates: 20s of 21.5s total state time.
	frac := CategoryFraction(f, "Compute", f.Start, f.End)
	if math.Abs(frac-20.0/21.5) > 1e-9 {
		t.Errorf("compute fraction = %v", frac)
	}
	if got := CategoryFraction(f, "NoSuch", 0, 10); got != 0 {
		t.Errorf("unknown category fraction = %v", got)
	}
}

func TestSearch(t *testing.T) {
	f := makeLog(t)
	hits := Search(f, SearchOptions{Name: "read", Rank: -1})
	if len(hits) != 1 || hits[0].Name != "PI_Read" || hits[0].Rank != 1 {
		t.Fatalf("hits %+v", hits)
	}
	hits = Search(f, SearchOptions{Name: "arrow", Rank: -1})
	if len(hits) != 1 || hits[0].Kind != "arrow" {
		t.Fatalf("arrow hits %+v", hits)
	}
	if !strings.Contains(hits[0].Detail, "tag: 9") || !strings.Contains(hits[0].Detail, "size: 100") {
		t.Errorf("arrow popup incomplete: %s", hits[0].Detail)
	}
	// Rank filter.
	hits = Search(f, SearchOptions{Rank: 0})
	for _, h := range hits {
		if h.Kind != "arrow" && h.Rank != 0 {
			t.Errorf("rank filter leaked %+v", h)
		}
	}
	// Duration filter: only the 10s Computes survive 5s minimum.
	hits = Search(f, SearchOptions{Rank: -1, MinDuration: 5})
	if len(hits) != 2 {
		t.Fatalf("duration filter hits %+v", hits)
	}
	// Cargo search.
	hits = Search(f, SearchOptions{Rank: -1, Cargo: "y.go:9"})
	if len(hits) != 1 || hits[0].Name != "PI_Read" {
		t.Fatalf("cargo hits %+v", hits)
	}
	// Limit.
	hits = Search(f, SearchOptions{Rank: -1, Limit: 1})
	if len(hits) != 1 {
		t.Fatalf("limit ignored: %d hits", len(hits))
	}
	if out := FormatHits(hits); !strings.Contains(out, "P") {
		t.Errorf("FormatHits output %q", out)
	}
}

func TestRenderSVGStructure(t *testing.T) {
	f := makeLog(t)
	svg := RenderSVG(f, View{Title: "test run"})
	for _, want := range []string{
		"<svg", "</svg>", "test run",
		"PI_MAIN",            // rank 0 label
		"P1",                 // rank 1 label
		"#ff0000", "#00ff00", // read red, write green
		"#808080",           // compute gray
		`stroke="#ffffff"`,  // white arrow
		"message P0-&gt;P1", // arrow popup
		"MsgArrival",        // bubble popup
		"dur:",              // state popup duration
		"line: y.go:9",      // cargo in popup
	} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
}

func TestRenderSVGViewportClips(t *testing.T) {
	f := makeLog(t)
	full := RenderSVG(f, View{})
	zoomed := RenderSVG(f, View{From: 5, To: 6})
	if strings.Contains(zoomed, "PI_Read") && strings.Contains(full, "PI_Read") == false {
		t.Fatal("full view missing read")
	}
	// The read [2,3] lies outside [5,6].
	if strings.Contains(zoomed, ">PI_Read ") {
		t.Error("zoomed view still contains out-of-window read state")
	}
}

func TestRenderSVGPreviewMode(t *testing.T) {
	// Build a log with many tiny states on one rank to force previews.
	recs := []clog2.Record{
		{Type: clog2.RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Color: "gray", Name: "Compute"},
	}
	for i := 0; i < 2000; i++ {
		t0 := float64(i) * 0.01
		recs = append(recs,
			clog2.Record{Type: clog2.RecCargoEvt, Time: t0, Rank: 0, ID: 2},
			clog2.Record{Type: clog2.RecCargoEvt, Time: t0 + 0.005, Rank: 0, ID: 3},
		)
	}
	sf, _ := convertLog(t, 1, slog2.ConvertOptions{}, clog2.Block{Rank: 0, Records: recs})
	svg := RenderSVG(sf, View{PreviewThreshold: 100})
	// Preview mode draws outline rectangles (fill="none").
	if !strings.Contains(svg, `fill="none"`) {
		t.Error("preview mode did not engage for 2000 states")
	}
	// With a huge threshold the same log draws individual rectangles.
	svg = RenderSVG(sf, View{PreviewThreshold: 10000})
	if strings.Contains(svg, `fill="none"`) {
		t.Error("individual mode drew preview outlines")
	}
}

func TestRenderASCII(t *testing.T) {
	f := makeLog(t)
	out := RenderASCII(f, View{Width: 40})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + 2 ranks
		t.Fatalf("ascii output:\n%s", out)
	}
	if !strings.Contains(lines[1], "PI_MAIN") || !strings.Contains(lines[2], "P1") {
		t.Fatalf("ascii labels missing:\n%s", out)
	}
	// Rank 1's row should be dominated by Compute 'C' with an 'R' in the
	// read window.
	if !strings.Contains(lines[2], "C") {
		t.Errorf("no compute cells in:\n%s", out)
	}
	if !strings.Contains(lines[2], "R") {
		t.Errorf("no read cell in:\n%s", out)
	}
}

func TestRenderSVGEscapesCargo(t *testing.T) {
	sf, _ := convertLog(t, 1, slog2.ConvertOptions{}, clog2.Block{Rank: 0, Records: []clog2.Record{
		{Type: clog2.RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Color: "red", Name: "S<evil>"},
		cargoRec(0, 0, 2, `<script>"x"&`),
		{Type: clog2.RecCargoEvt, Time: 1, Rank: 0, ID: 3},
	}})
	svg := RenderSVG(sf, View{})
	if strings.Contains(svg, "<script>") || strings.Contains(svg, "S<evil>") {
		t.Error("SVG output not escaped")
	}
}
