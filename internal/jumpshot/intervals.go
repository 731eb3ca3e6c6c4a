package jumpshot

import (
	"sort"

	"repro/internal/colors"
	"repro/internal/slog2"
)

// Interval is a closed time span.
type Interval struct {
	Start, End float64
}

// busyIntervals returns the spans within [t0, t1] where the rank is
// actually computing: inside a Compute state but not blocked in an
// input-category state (PI_Read, PI_Select, PI_Gather, PI_Reduce). This
// is what the eye extracts from the paper's figures — "the partial
// overlapping of gray bars" — turned into a number. states is the
// answer of f.States(t0, t1), shared by every rank asked about.
func busyIntervals(f *slog2.File, states []slog2.Ref[*slog2.State], rank int, t0, t1 float64) []Interval {
	var compute, blocked []Interval
	for _, r := range states {
		s := r.D
		if s.Rank != rank {
			continue
		}
		iv := Interval{clampF(s.Start, t0, t1), clampF(s.End, t0, t1)}
		if iv.End <= iv.Start {
			continue
		}
		name := f.Categories[s.Cat].Name
		switch {
		case name == "Compute":
			compute = append(compute, iv)
		case colors.CategoryOf(name) == colors.Input:
			blocked = append(blocked, iv)
		}
	}
	return subtractIntervals(normalizeIntervals(compute), normalizeIntervals(blocked))
}

// normalizeIntervals sorts and merges overlapping intervals.
func normalizeIntervals(ivs []Interval) []Interval {
	if len(ivs) == 0 {
		return nil
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
	out := []Interval{ivs[0]}
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.Start <= last.End {
			if iv.End > last.End {
				last.End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// subtractIntervals removes b from a (both normalised).
func subtractIntervals(a, b []Interval) []Interval {
	var out []Interval
	bi := 0
	for _, iv := range a {
		cur := iv
		for bi < len(b) && b[bi].End <= cur.Start {
			bi++
		}
		j := bi
		for j < len(b) && b[j].Start < cur.End {
			if b[j].Start > cur.Start {
				out = append(out, Interval{cur.Start, b[j].Start})
			}
			if b[j].End >= cur.End {
				cur.Start = cur.End
				break
			}
			cur.Start = b[j].End
			j++
		}
		if cur.End > cur.Start {
			out = append(out, cur)
		}
	}
	return out
}

// IntervalOverlap returns the total intersection length of two normalised
// interval sets.
func IntervalOverlap(a, b []Interval) float64 {
	var total float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := a[i].Start
		if b[j].Start > lo {
			lo = b[j].Start
		}
		hi := a[i].End
		if b[j].End < hi {
			hi = b[j].End
		}
		if hi > lo {
			total += hi - lo
		}
		if a[i].End < b[j].End {
			i++
		} else {
			j++
		}
	}
	return total
}

// IntervalTotal returns the summed length of an interval set.
func IntervalTotal(ivs []Interval) float64 {
	var total float64
	for _, iv := range ivs {
		total += iv.End - iv.Start
	}
	return total
}

// BusyOverlapRatio quantifies how parallel a set of ranks really ran in
// [t0, t1]: the mean pairwise busy-time overlap divided by the mean busy
// time. Near 1 = fully parallel workers; near 0 = the serialized pattern
// of the paper's instance A, where "the workers never did query
// processing in parallel at all".
func BusyOverlapRatio(f *slog2.File, ranks []int, t0, t1 float64) float64 {
	states := f.States(t0, t1)
	busy := make([][]Interval, len(ranks))
	var meanBusy float64
	for i, r := range ranks {
		busy[i] = busyIntervals(f, states, r, t0, t1)
		meanBusy += IntervalTotal(busy[i])
	}
	if len(ranks) < 2 || meanBusy == 0 {
		return 0
	}
	meanBusy /= float64(len(ranks))
	var sum float64
	var pairs int
	for i := 0; i < len(ranks); i++ {
		for j := i + 1; j < len(ranks); j++ {
			sum += IntervalOverlap(busy[i], busy[j])
			pairs++
		}
	}
	return (sum / float64(pairs)) / meanBusy
}
