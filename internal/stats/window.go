// The windowed profile path, accelerated by the log's block table:
// profile only the blocks whose time fences intersect [t0, t1]. clog2.Walk
// decides whether the table selects those blocks or every block is read;
// either way the blocks feed the same Profiler in file order, so the
// answers are identical by construction: the table only skips blocks that
// contain no in-window non-definition records, and definition-bearing
// blocks are always visited (IncludeDefs).
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
	q.T0, q.T1, q.IncludeDefs = t0, t1, true
	var pp *Profiler
	used, err := clog2.Walk(path, q, func(numRanks int) func(clog2.Block) error {
		pp = NewProfiler(clog2.NewFold(t0, t1), numRanks)
		return pp.observeBlock
	})
	if err != nil {
		return nil, false, fmt.Errorf("stats: profiling %s: %w", path, err)
	}
	return pp.Profile(), used, nil
}
