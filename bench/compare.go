package main

// Verdicts of a comparison between two sets of runs of one metric.
const (
	unchanged  = "unchanged"
	worse      = "worse"
	better     = "better"
	unresolved = "unresolved"
)

// comparison is the outcome for one metric on one workload.
type comparison struct {
	first, second float64 // medians of the two sets
	// worsePct is how much worse the second median is than the first, in
	// percent of the first; negative when it is better.
	worsePct float64
	// spreadPct is the distance between the first set's quartiles, in
	// percent of its median; 0 for a set of one.
	spreadPct float64
	verdict   string
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) gives them, which is what the driver uses
// for a metric's spread. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// compare judges the second set of runs against the first for metric d.
// The second is worse (or better) when its median is off by more than the
// metric's bound. When the first set's own spread, the distance between
// its quartiles as a share of its median, is wider than the bound, the
// runs cannot tell a change of that size from noise: the verdict is then
// unresolved, not unchanged, unless every run of one set reads better than
// every run of the other.
func compare(d metricDef, a, b []float64) comparison {
	c := comparison{first: median(a), second: median(b)}
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	c.worsePct = sign * (c.second - c.first) / c.first * 100
	switch {
	case c.worsePct > d.Bound*100:
		c.verdict = worse
	case c.worsePct < -d.Bound*100:
		c.verdict = better
	default:
		c.verdict = unchanged
	}
	if len(a) >= 2 {
		q1, q3 := quartiles(a)
		c.spreadPct = (q3 - q1) / c.first * 100
		if c.spreadPct > d.Bound*100 && !disjoint(a, b) {
			c.verdict = unresolved
		}
	}
	return c
}

// disjoint reports whether every value of one set lies below every value
// of the other.
func disjoint(a, b []float64) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if len(sa) == 0 || len(sb) == 0 {
		return false
	}
	return sa[len(sa)-1] < sb[0] || sb[len(sb)-1] < sa[0]
}
