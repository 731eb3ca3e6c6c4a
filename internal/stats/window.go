// The windowed profile path, accelerated by the log's block table:
// profile only the blocks whose time fences intersect [t0, t1].
// clog2.EachRank decides whether the table selects those blocks or every
// block is read; either way the reader hands each rank's Profiler the
// records of the rank the window selects, and the definitions come first,
// so the answers are identical by construction.
package stats

import (
	"fmt"
	"os"
	"runtime"

	"repro/internal/clog2"
)

// ComputeProfileFileWindowed profiles the CLOG-2 file at path over the
// inclusive time window [t0, t1] (use math.Inf bounds for "no limit"),
// rank by rank on GOMAXPROCS workers (clog2.FileInput). When the log ends
// in a usable block table, only the blocks the window can touch are
// decoded; the boolean result reports whether that table selected them.
// Every degradation clog2.WalkRanks names falls back to the table
// ScanTable makes.
func ComputeProfileFileWindowed(path string, t0, t1 float64) (*Profile, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	in, err := clog2.FileInput(f)
	if err != nil {
		return nil, false, err
	}
	p, used, err := computeProfile(in, t0, t1, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, false, fmt.Errorf("stats: profiling %s: %w", path, err)
	}
	return p, used, nil
}
