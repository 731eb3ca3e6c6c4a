package analyze_test

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/analyze"
	"repro/internal/core"
	"repro/internal/lab2"
	"repro/internal/mpi"
)

// runLab2 is the analyzer corpus's lab2 cell (analyze_corpus_test.go):
// W=4 under a seeded fault plan, "" for the clean twin; robust turns on
// the spill salvage that leaves a log behind a crashed run.
func runLab2(t *testing.T, spec, services string, robust bool) []byte {
	t.Helper()
	clog := filepath.Join(t.TempDir(), "run.clog2")
	cfg := lab2.Config{W: 4, NUM: 400, Seed: 1}
	cfg.Core = core.Config{
		Services:      services,
		CheckLevel:    3,
		DeadlockGrace: 250 * time.Millisecond,
		ArrowSpread:   -1,
		RobustLog:     robust,
		JumpshotPath:  clog,
		NativePath:    clog + ".log",
		Stderr:        io.Discard,
	}
	if spec != "" {
		plan, err := mpi.ParseFaultPlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Core.Faults = plan
	}
	lab2.Run(cfg) // the crash cell ends in a diagnosed deadlock; its log is what is wanted
	data, err := os.ReadFile(clog)
	if err != nil {
		t.Fatalf("run %q left no log: %v", spec, err)
	}
	return data
}

// The corpus's diff cells, a seeded stall and a seeded crash against
// their clean twins, come out of the streaming diff byte for byte as
// they came out of the string diff.
func TestDiffMatchesOracleOnCorpusRuns(t *testing.T) {
	cells := []struct {
		name, spec, services string
		robust               bool
	}{
		{"stall", "seed=1;stall:rank=2,op=3,dur=500ms", "j", false},
		{"crash", "seed=4;crash:rank=2,op=1", "dj", true},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			clean := runLab2(t, "", c.services, c.robust)
			faulted := runLab2(t, c.spec, c.services, c.robust)
			for _, pair := range [][2][]byte{{clean, faulted}, {faulted, clean}, {faulted, faulted}} {
				for _, ctx := range []int{0, 1, 7} {
					opts := analyze.DiffOptions{Context: ctx}
					want, err := analyze.OracleDiffBytes(pair[0], pair[1], "clean.clog2", "faulted.clog2", opts)
					if err != nil {
						t.Fatal(err)
					}
					got, err := analyze.DiffBytes(pair[0], pair[1], "clean.clog2", "faulted.clog2", opts)
					if err != nil {
						t.Fatal(err)
					}
					wj, _ := want.JSON()
					gj, _ := got.JSON()
					if !bytes.Equal(gj, wj) {
						t.Fatalf("context %d: JSON differs from the string oracle\n--- got\n%s--- want\n%s", ctx, gj, wj)
					}
				}
			}
			rep, _ := analyze.DiffBytes(clean, faulted, "clean.clog2", "faulted.clog2", analyze.DiffOptions{})
			if rep.Identical {
				t.Error("the faulted run diffs identical to its clean twin: the cell compares nothing")
			}
		})
	}
}
