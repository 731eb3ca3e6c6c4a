// The windowed profile path, accelerated by the log's block table:
// profile only the blocks whose time fences intersect [t0, t1]. clog2.Walk
// decides whether the table selects those blocks or every block is read;
// either way the reader hands the same Profiler the records the window
// selects, definitions included (IncludeDefs), in file order, so the
// answers are identical by construction.
package stats

import (
	"fmt"

	"repro/internal/clog2"
)

// ComputeProfileFileWindowed profiles the CLOG-2 file at path over the
// inclusive time window [t0, t1] (use math.Inf bounds for "no limit").
// When the log ends in a valid block table, only the blocks the window can
// touch are decoded; the boolean result reports whether the table was
// used. Every degradation clog2.Walk names falls back to reading every
// block.
func ComputeProfileFileWindowed(path string, t0, t1 float64) (*Profile, bool, error) {
	q := clog2.MatchAll()
	q.T0, q.T1 = t0, t1
	var pp *Profiler
	used, err := clog2.Walk(path, q, func(numRanks int) func(clog2.Block) error {
		pp = NewProfiler(clog2.NewFold(), numRanks, t0, t1)
		return pp.observeBlock
	})
	if err != nil {
		return nil, false, fmt.Errorf("stats: profiling %s: %w", path, err)
	}
	return pp.Profile(), used, nil
}
