package jumpshot

import (
	"math"
	"strings"
	"testing"

	"repro/internal/clog2"
	"repro/internal/slog2"
)

func TestCriticalPathSimpleChain(t *testing.T) {
	// waitLog: rank 1 reads resolve at 2.8 (from P0's send at 2.1) and 5.5
	// (from P2's send at 5.1); reads end at 3 and 6. The path ends at the
	// latest state end (6 on rank 1).
	f := waitLog(t)
	path := CriticalPath(f)
	if len(path) == 0 {
		t.Fatal("empty path")
	}
	// Chronological and contiguous-ish: each segment starts no later than
	// the next begins.
	for i := 1; i < len(path); i++ {
		if path[i].Start < path[i-1].Start-1e-9 {
			t.Fatalf("path not chronological: %+v", path)
		}
	}
	last := path[len(path)-1]
	if last.End != 6 || last.Rank != 1 {
		t.Fatalf("path does not end at the final state: %+v", last)
	}
	// The chain must include the message hop from P2 (send 5.1 -> read end 6).
	foundHop := false
	for _, s := range path {
		if s.Kind == "message" && s.SrcRank == 2 && s.Rank == 1 {
			foundHop = true
			if math.Abs(s.Start-5.1) > 1e-9 || math.Abs(s.End-6) > 1e-9 {
				t.Fatalf("hop bounds %+v", s)
			}
		}
	}
	if !foundHop {
		t.Fatalf("missing P2->P1 hop in %+v", path)
	}
	out := FormatCriticalPath(path)
	if !strings.Contains(out, "critical path:") || !strings.Contains(out, "message P2->P1") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestCriticalPathNoInputs(t *testing.T) {
	// A single compute state: the whole run is one local segment.
	f := makeLogOneState(t)
	path := CriticalPath(f)
	if len(path) != 1 || path[0].Kind != "compute" {
		t.Fatalf("path %+v", path)
	}
	if path[0].Start != f.Start || path[0].End != f.End {
		t.Fatalf("segment bounds %+v over [%v,%v]", path[0], f.Start, f.End)
	}
}

func TestCriticalPathEmptyLog(t *testing.T) {
	if p := CriticalPath(&emptySlog); p != nil {
		t.Fatalf("path on empty log: %+v", p)
	}
	if out := FormatCriticalPath(nil); !strings.Contains(out, "empty") {
		t.Fatalf("format of empty path: %q", out)
	}
}

// makeLogOneState builds a log with a single Compute state on rank 0.
func makeLogOneState(t *testing.T) *slog2.File {
	t.Helper()
	sf, _ := convertLog(t, 1, slog2.ConvertOptions{}, clog2.Block{Rank: 0, Records: []clog2.Record{
		{Type: clog2.RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Color: "gray", Name: "Compute"},
		{Type: clog2.RecCargoEvt, Time: 1, Rank: 0, ID: 2},
		{Type: clog2.RecCargoEvt, Time: 4, Rank: 0, ID: 3},
	}})
	return sf
}

var emptySlog = slog2.File{Root: &slog2.Frame{}}
