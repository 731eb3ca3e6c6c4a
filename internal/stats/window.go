// The windowed, index-accelerated profile path: profile only the blocks
// whose time fences intersect [t0, t1] by seeking through the ".idx"
// sidecar, degrading to the streaming windowed scan whenever the sidecar
// is absent, stale, or fails validation. Both paths feed the same
// Profiler, so their answers are identical by construction: the index
// only skips blocks that contain no in-window non-definition records,
// definition-bearing blocks are always visited (IncludeDefs), and blocks
// arrive in file order either way.
package stats

import (
	"fmt"
	"math"
	"os"

	"repro/internal/clog2"
	"repro/internal/idx"
)

// ComputeProfileFileWindowed profiles the CLOG-2 file at path over the
// inclusive time window [t0, t1] (use math.Inf bounds for "no limit").
// When a valid index sidecar sits next to the file, only the blocks the
// window can touch are decoded; the boolean result reports whether the
// index was used. Every degradation — no sidecar, stale sidecar,
// validation failure, or an index that turns out to lie about the file —
// falls back to the full streaming scan.
func ComputeProfileFileWindowed(path string, t0, t1 float64) (*Profile, bool, error) {
	if ix, err := idx.Load(path); err == nil {
		p, err := ComputeProfileIndexed(path, ix, t0, t1)
		if err == nil {
			return p, true, nil
		}
		// The sidecar validated but disagreed with the file (or the file
		// grew unreadable mid-scan): re-answer from the log itself.
	}
	p, err := computeProfileScan(path, t0, t1)
	return p, false, err
}

func computeProfileScan(path string, t0, t1 float64) (*Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := ComputeProfileWindowed(f, t0, t1)
	if err != nil {
		return nil, fmt.Errorf("stats: profiling %s: %w", path, err)
	}
	return p, nil
}

// ComputeProfileIndexed profiles through a specific, already-validated
// index, with no fallback: an index/file disagreement surfaces as an
// error. Callers that want graceful degradation use
// ComputeProfileFileWindowed; this entry point exists for equality
// verification (pilot-index verify), where a silent fallback would
// defeat the purpose.
func ComputeProfileIndexed(path string, ix *idx.Index, t0, t1 float64) (*Profile, error) {
	q := idx.MatchAll()
	q.T0, q.T1 = t0, t1
	q.IncludeDefs = true
	sel := ix.Select(q)
	pp := NewProfiler(clog2.NewFold(t0, t1), ix.NumRanks)
	if err := idx.ScanFile(path, ix, sel, pp.observeBlock); err != nil {
		return nil, err
	}
	return pp.Profile(), nil
}

// NoLimit returns the unbounded window bounds — a convenience for
// callers threading optional -t0/-t1 flags.
func NoLimit() (t0, t1 float64) { return math.Inf(-1), math.Inf(1) }
