package jumpshot

import "repro/internal/slog2"

// exclusiveBuckets distributes one rank's states (outermostFirst, as
// statesByRank returns them) over n equal buckets of
// width span starting at from, returning per-bucket, per-category
// *exclusive* time: a nested state's time is subtracted from its immediate
// parent, so an instant is attributed to the innermost state covering it.
// This is what makes a PI_Read visible inside a long Compute rectangle in
// the downsampled views. cats is the number of categories.
func exclusiveBuckets(rs []slog2.Ref[*slog2.State], from, span float64, n, cats int) buckets {
	bs := buckets{cats: cats, times: make([]float64, n*cats), in: make([]bool, n*cats)}
	if n == 0 || span <= 0 {
		return bs
	}
	to := from + span*float64(n)
	addRange := func(cat int, lo, hi, sign float64) {
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if hi <= lo {
			return
		}
		b0 := int((lo - from) / span)
		b1 := int((hi - from) / span)
		if b1 >= n {
			b1 = n - 1
		}
		for bi := b0; bi <= b1; bi++ {
			bLo := from + float64(bi)*span
			bHi := bLo + span
			l, h := lo, hi
			if l < bLo {
				l = bLo
			}
			if h > bHi {
				h = bHi
			}
			if h <= l {
				continue
			}
			bs.times[bi*cats+cat] += sign * (h - l)
			bs.in[bi*cats+cat] = true
		}
	}

	var walk nesting
	for _, r := range rs {
		s := r.D
		_, parent := walk.enter(s)
		addRange(s.Cat, s.Start, s.End, +1)
		if parent != nil {
			addRange(parent.Cat, s.Start, s.End, -1)
		}
	}
	// Clamp tiny negative residues from floating arithmetic.
	for i, d := range bs.times {
		if d < 0 && d > -1e-9 {
			bs.times[i] = 0
		}
	}
	return bs
}

// buckets is exclusiveBuckets' answer, dense: bucket b's time in
// category c is times[b*cats+c], and in[b*cats+c] says whether any state
// of the category reached the bucket at all (a time that came to 0 did).
type buckets struct {
	cats  int
	times []float64
	in    []bool
}

// bucket returns bucket b's times and reached flags, by category.
func (bs buckets) bucket(b int) ([]float64, []bool) {
	lo, hi := b*bs.cats, (b+1)*bs.cats
	return bs.times[lo:hi:hi], bs.in[lo:hi:hi]
}
