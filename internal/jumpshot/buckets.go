package jumpshot

import "repro/internal/slog2"

// exclusiveBuckets distributes one rank's states (outermostFirst, as
// statesByRank returns them) over n equal buckets of
// width span starting at from, returning per-bucket, per-category
// *exclusive* time: a nested state's time is subtracted from its immediate
// parent, so an instant is attributed to the innermost state covering it.
// This is what makes a PI_Read visible inside a long Compute rectangle in
// the downsampled views.
func exclusiveBuckets(rs []slog2.Ref[*slog2.State], from, span float64, n int) []map[int]float64 {
	buckets := make([]map[int]float64, n)
	if n == 0 || span <= 0 {
		return buckets
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
			if buckets[bi] == nil {
				buckets[bi] = map[int]float64{}
			}
			buckets[bi][cat] += sign * (h - l)
		}
	}

	type openIv struct {
		cat int
		end float64
	}
	var stack []openIv
	for _, r := range rs {
		s := r.D
		for len(stack) > 0 && stack[len(stack)-1].end <= s.Start {
			stack = stack[:len(stack)-1]
		}
		addRange(s.Cat, s.Start, s.End, +1)
		if len(stack) > 0 && stack[len(stack)-1].end >= s.End {
			addRange(stack[len(stack)-1].cat, s.Start, s.End, -1)
		}
		stack = append(stack, openIv{cat: s.Cat, end: s.End})
	}
	// Clamp tiny negative residues from floating arithmetic.
	for _, m := range buckets {
		for cat, d := range m {
			if d < 0 {
				if d > -1e-9 {
					m[cat] = 0
				}
			}
		}
	}
	return buckets
}
