package jumpshot

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/slog2"
)

// RankStats summarises one timeline over a user-selected duration —
// Jumpshot's "picture from user-selected duration which allows for ease of
// data analysis on the statistics of a logfile", the paper's example being
// "easy detection of load imbalance across processes".
type RankStats struct {
	Rank int
	// Time[cat] is the state time of that category clipped to the window.
	Time map[int]float64
	// Fraction[cat] is Time[cat] divided by the window length.
	Fraction map[int]float64
	// Busy is the fraction of the window covered by any state other than
	// the ones named in the idle set (none by default).
	Busy float64
}

// Stats computes per-rank category statistics over [t0, t1]. Ranks with no
// drawables in the window are omitted.
func Stats(f *slog2.File, t0, t1 float64) []RankStats {
	if t1 <= t0 {
		return nil
	}
	window := t1 - t0
	byRank := map[int]*RankStats{}
	for _, r := range f.States(t0, t1) {
		s := r.D
		rs := byRank[s.Rank]
		if rs == nil {
			rs = &RankStats{Rank: s.Rank, Time: map[int]float64{}, Fraction: map[int]float64{}}
			byRank[s.Rank] = rs
		}
		lo, hi := s.Start, s.End
		if lo < t0 {
			lo = t0
		}
		if hi > t1 {
			hi = t1
		}
		if hi > lo {
			rs.Time[s.Cat] += hi - lo
		}
	}
	out := make([]RankStats, 0, len(byRank))
	for _, rs := range byRank {
		for cat, d := range rs.Time {
			rs.Fraction[cat] = d / window
			_ = cat
		}
		out = append(out, *rs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// CategoryFraction returns the total fraction of (rank-summed) state time
// spent in the named category over [t0, t1], relative to all state time in
// the window. Figure-level assertions use it: e.g. "most of the execution
// time is used for computation (the gray state rectangles)".
func CategoryFraction(f *slog2.File, name string, t0, t1 float64) float64 {
	idx := f.CategoryIndex(name)
	if idx < 0 {
		return 0
	}
	stats := Stats(f, t0, t1)
	var total, named float64
	for _, rs := range stats {
		for cat, d := range rs.Time {
			total += d
			if cat == idx {
				named += d
			}
		}
	}
	if total == 0 {
		return 0
	}
	return named / total
}

// FormatStats renders per-rank statistics as an aligned table with one
// column per category present.
func FormatStats(f *slog2.File, stats []RankStats) string {
	present := map[int]bool{}
	for _, rs := range stats {
		for cat := range rs.Time {
			present[cat] = true
		}
	}
	var cats []int
	for cat := range present {
		cats = append(cats, cat)
	}
	sort.Ints(cats)
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s", "rank")
	for _, cat := range cats {
		fmt.Fprintf(&b, " %14s", f.Categories[cat].Name)
	}
	b.WriteByte('\n')
	for _, rs := range stats {
		fmt.Fprintf(&b, "P%-5d", rs.Rank)
		for _, cat := range cats {
			fmt.Fprintf(&b, " %13.1f%%", rs.Fraction[cat]*100)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
