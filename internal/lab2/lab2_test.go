package lab2

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/jumpshot"
	"repro/vis"
)

func cfgFor(t *testing.T, services string) Config {
	t.Helper()
	return Config{
		W: 5, NUM: 10000, Seed: 1,
		Core: core.Config{
			Services:     services,
			CheckLevel:   3,
			JumpshotPath: filepath.Join(t.TempDir(), "lab2.clog2"),
			ArrowSpread:  -1,
		},
	}
}

func TestLab2Correct(t *testing.T) {
	res, err := Run(cfgFor(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != res.Expected {
		t.Fatalf("total %d != expected %d", res.Total, res.Expected)
	}
	if len(res.Subtotals) != 5 {
		t.Fatalf("subtotals %v", res.Subtotals)
	}
}

func TestLab2CaretFormEquivalent(t *testing.T) {
	plain, err := Run(cfgFor(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	caret := cfgFor(t, "")
	caret.UseCaret = true
	withCaret, err := Run(caret)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Total != withCaret.Total {
		t.Fatalf("caret form changed the answer: %d vs %d", withCaret.Total, plain.Total)
	}
}

func TestLab2UnevenDivision(t *testing.T) {
	cfg := cfgFor(t, "")
	cfg.W = 3
	cfg.NUM = 10001 // NUM % W != 0: last worker gets the remainder
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != res.Expected {
		t.Fatalf("uneven split broke the sum")
	}
}

// Fig. 3's structure: with W=5, the visual log has 6 timelines, 15
// arrows, and per-worker red/red/green call sequences.
func TestLab2VisualLogMatchesFig3(t *testing.T) {
	cfg := cfgFor(t, "j")
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	f, rep, err := vis.ConvertFile(cfg.Core.JumpshotPath, vis.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.UnmatchedSends+rep.UnmatchedRecvs+rep.NestingErrors != 0 {
		t.Fatalf("conversion not clean: %+v", rep)
	}
	legend := jumpshot.Legend(f, f.Start, f.End)
	byName := map[string]jumpshot.LegendEntry{}
	for _, e := range legend {
		byName[e.Name] = e
	}
	if byName["Compute"].Count != 6 {
		t.Errorf("timelines = %d, want 6", byName["Compute"].Count)
	}
	if byName["PI_Read"].Count != 15 || byName["PI_Write"].Count != 15 {
		t.Errorf("reads/writes = %d/%d, want 15/15",
			byName["PI_Read"].Count, byName["PI_Write"].Count)
	}
	arrows := jumpshot.Search(f, jumpshot.SearchOptions{Name: "arrow", Rank: -1})
	if len(arrows) != 15 {
		t.Errorf("arrows = %d, want 15", len(arrows))
	}
	// Each worker's two reads precede its write (red, red, green).
	for w := 1; w <= 5; w++ {
		hits := jumpshot.Search(f, jumpshot.SearchOptions{Rank: w})
		var seq []string
		for _, h := range hits {
			if h.Name == "PI_Read" || h.Name == "PI_Write" {
				seq = append(seq, h.Name)
			}
		}
		want := []string{"PI_Read", "PI_Read", "PI_Write"}
		if len(seq) != 3 {
			t.Fatalf("worker %d call sequence %v", w, seq)
		}
		for i := range want {
			if seq[i] != want[i] {
				t.Fatalf("worker %d sequence %v, want %v", w, seq, want)
			}
		}
	}
}

// The footnote-3 form must be "accurately reflected in the visual log":
// one read state per worker but still multiple wire messages overall.
func TestLab2CaretVisualLog(t *testing.T) {
	cfg := cfgFor(t, "j")
	cfg.UseCaret = true
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	f, _, err := vis.ConvertFile(cfg.Core.JumpshotPath, vis.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	legend := jumpshot.Legend(f, f.Start, f.End)
	for _, e := range legend {
		if e.Name == "PI_Read" && e.Count != 10 { // 1 per worker + 5 on main
			t.Errorf("caret-form PI_Read count = %d, want 10", e.Count)
		}
	}
}
