package core

import "repro/internal/clock"

// coarseClocks builds n rank clocks sharing one timebase but truncated to
// the given resolution, emulating a coarse MPI_Wtime.
func coarseClocks(n int, resolution float64) []clock.Source {
	base := clock.NewReal()
	out := make([]clock.Source, n)
	for i := range out {
		out[i] = clock.NewSkewed(base, 0, 0, resolution)
	}
	return out
}
