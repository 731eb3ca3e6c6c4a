package jumpshot

import (
	"fmt"
	"math"
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

// LoadImbalance returns the ratio of the maximum to the minimum per-rank
// time in the named category across the given ranks (1.0 = perfectly
// balanced). Ranks absent from the window count as zero, yielding +Inf.
func LoadImbalance(f *slog2.File, name string, ranks []int, t0, t1 float64) float64 {
	idx := f.CategoryIndex(name)
	if idx < 0 || len(ranks) == 0 {
		return 0
	}
	stats := Stats(f, t0, t1)
	byRank := map[int]float64{}
	for _, rs := range stats {
		byRank[rs.Rank] = rs.Time[idx]
	}
	min, max := -1.0, 0.0
	for _, r := range ranks {
		v := byRank[r]
		if v > max {
			max = v
		}
		if min < 0 || v < min {
			min = v
		}
	}
	if min <= 0 {
		if max == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return max / min
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

// Overlap measures how much the named category's states on two ranks run
// concurrently within [t0,t1]: the summed intersection of their intervals.
// The student "instance A" diagnosis rests on this: serialized query
// processing shows ~zero pairwise overlap of worker Compute states.
func Overlap(f *slog2.File, name string, rankA, rankB int, t0, t1 float64) float64 {
	idx := f.CategoryIndex(name)
	if idx < 0 {
		return 0
	}
	var as, bs []*slog2.State
	for _, r := range f.States(t0, t1) {
		if s := r.D; s.Cat == idx {
			switch s.Rank {
			case rankA:
				as = append(as, s)
			case rankB:
				bs = append(bs, s)
			}
		}
	}
	var total float64
	for _, a := range as {
		for _, b := range bs {
			lo, hi := a.Start, a.End
			if b.Start > lo {
				lo = b.Start
			}
			if b.End < hi {
				hi = b.End
			}
			if lo < t0 {
				lo = t0
			}
			if hi > t1 {
				hi = t1
			}
			if hi > lo {
				total += hi - lo
			}
		}
	}
	return total
}
