package jumpshot

import (
	"slices"

	"repro/internal/slog2"
)

// Window is a tile query: a time window crossed with a rank window —
// the unit a trace-serving viewer fetches. RankLo/RankHi of (0, -1)
// mean "all ranks".
type Window struct {
	T0, T1         float64
	RankLo, RankHi int
}

// AllRanks reports whether the window does not cut by rank.
func (w Window) AllRanks() bool { return w.RankHi < w.RankLo }

// contains reports whether rank falls inside the window's rank cut.
func (w Window) contains(rank int) bool {
	return w.AllRanks() || (rank >= w.RankLo && rank <= w.RankHi)
}

// Tile fetches the drawables of one tile: refs to the time window's
// drawables in Query's order, in place in the file's frames, cut by the
// rank window. States and events need their own rank inside the window;
// an arrow stays when either endpoint does, so a tile never shows a
// message stub without its context.
func Tile(f *slog2.File, w Window) ([]slog2.Ref[*slog2.State], []slog2.Ref[*slog2.Arrow], []slog2.Ref[*slog2.Event]) {
	states, arrows, events := f.States(w.T0, w.T1), f.Arrows(w.T0, w.T1), f.Events(w.T0, w.T1)
	if !w.AllRanks() {
		states = slices.DeleteFunc(states, func(r slog2.Ref[*slog2.State]) bool { return !w.contains(r.D.Rank) })
		arrows = slices.DeleteFunc(arrows, func(r slog2.Ref[*slog2.Arrow]) bool {
			return !w.contains(r.D.SrcRank) && !w.contains(r.D.DstRank)
		})
		events = slices.DeleteFunc(events, func(r slog2.Ref[*slog2.Event]) bool { return !w.contains(r.D.Rank) })
	}
	return states, arrows, events
}

// TileRankOrder lists the ranks a tile's SVG rendering shows, in
// timeline order — the View.RankOrder for a rank-windowed render.
func TileRankOrder(f *slog2.File, w Window) []int {
	lo, hi := 0, f.NumRanks-1
	if !w.AllRanks() {
		if w.RankLo > lo {
			lo = w.RankLo
		}
		if w.RankHi < hi {
			hi = w.RankHi
		}
	}
	var ranks []int
	for r := lo; r <= hi; r++ {
		ranks = append(ranks, r)
	}
	return ranks
}
