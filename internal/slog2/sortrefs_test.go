package slog2

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// cmpLess orders a before b when a < b, and puts the two level otherwise:
// the comparison of the stable sorts the tests hold the package's own
// orders to.
func cmpLess(a, b float64) int {
	switch {
	case a < b:
		return -1
	case b < a:
		return 1
	}
	return 0
}

// checkSortRefs sorts a copy of refs with SortRefs and another with the
// stable comparison sort it replaced, and wants the same refs in the same
// order: the same pointers, not only the same times.
func checkSortRefs[P comparable](t *testing.T, what string, refs []Ref[P]) {
	t.Helper()
	want := slices.Clone(refs)
	slices.SortStableFunc(want, func(a, b Ref[P]) int { return cmpLess(a.At, b.At) })
	got := SortRefs(slices.Clone(refs))
	if len(got) != len(want) {
		t.Fatalf("%s: %d refs sorted to %d", what, len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s (%d refs): ref %d is %v at %v, the stable sort has %v at %v",
				what, len(refs), i, got[i].D, got[i].At, want[i].D, want[i].At)
		}
	}
}

// frameRefs collects every drawable under [t0, t1] in frame order, unsorted,
// each kind keyed as pick keys it: what SortRefs gets from pick and Search.
func frameRefs(f *File, t0, t1 float64) []Ref[any] {
	var refs []Ref[any]
	f.Frames(t0, t1, func(fr *Frame) {
		for i := range fr.States {
			if s := &fr.States[i]; s.In(t0, t1) {
				refs = append(refs, Ref[any]{s.Start, s})
			}
		}
		for i := range fr.Arrows {
			if a := &fr.Arrows[i]; a.In(t0, t1) {
				refs = append(refs, Ref[any]{a.Start, a})
			}
		}
		for i := range fr.Events {
			if e := &fr.Events[i]; e.In(t0, t1) {
				refs = append(refs, Ref[any]{e.Time, e})
			}
		}
	})
	return refs
}

// Property: SortRefs is slices.SortStableFunc by cmpLess, ref for ref, on
// what the frames of every golden file hold at full span and in 1 %
// windows, on a synthesized frame tree seven levels deep, on times drawn from a
// handful of values with both zeros among them, and at every length up to
// twice the insertion-sort cutoff.
func TestSortRefsMatchesStableSort(t *testing.T) {
	files := map[string]*File{"synth": synthFile(5000)}
	for _, name := range []string{"lab2", "thumbnail", "collisions"} {
		f, err := Read(bytes.NewReader(golden(t, name)))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = f
	}
	rng := rand.New(rand.NewSource(36))
	for name, f := range files {
		checkSortRefs(t, name+" full span", frameRefs(f, f.Start, f.End))
		span := f.End - f.Start
		for range 50 {
			t0 := f.Start + rng.Float64()*0.99*span
			checkSortRefs(t, name+" 1% window", frameRefs(f, t0, t0+span/100))
		}
	}

	// Dense ties: times from a few values, -0 and +0 among them, so runs
	// of equal keys cross every pass and the two zeros must tie.
	values := []float64{math.Copysign(0, -1), 0, -1.5, 1.5, 1e-9, -1e-9, 3, math.Inf(1), math.Inf(-1), 1e300}
	drawn := func(n int, spread int) []Ref[int] {
		refs := make([]Ref[int], n)
		for i := range refs {
			refs[i] = Ref[int]{values[rng.Intn(spread)], i}
		}
		return refs
	}
	for n := 0; n <= 2*smallSort+2; n++ {
		checkSortRefs(t, "ties", drawn(n, len(values)))
		checkSortRefs(t, "zeros only", drawn(n, 2))
	}
	for _, n := range []int{1000, 100_000} {
		checkSortRefs(t, "ties", drawn(n, len(values)))
		checkSortRefs(t, "zeros only", drawn(n, 2))
		// Times that differ in one low byte only, and ones spread over
		// every exponent, so no pass is skipped.
		refs := drawn(n, 1)
		for i := range refs {
			refs[i].At = 1 + float64(rng.Intn(256))*0x1p-52
		}
		checkSortRefs(t, "one byte", refs)
		for i := range refs {
			refs[i].At = math.Float64frombits(rng.Uint64())
			if math.IsNaN(refs[i].At) {
				refs[i].At = float64(i)
			}
		}
		checkSortRefs(t, "any bits", refs)
	}
}
