package jumpshot

import (
	"math"
	"math/rand"
	"testing"
)

func TestNormalizeIntervals(t *testing.T) {
	got := normalizeIntervals([]Interval{{5, 7}, {1, 3}, {2, 4}, {7, 9}})
	want := []Interval{{1, 4}, {5, 9}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if normalizeIntervals(nil) != nil {
		t.Fatal("nil input should stay nil")
	}
}

func TestSubtractIntervals(t *testing.T) {
	a := []Interval{{0, 10}}
	b := []Interval{{2, 3}, {5, 7}}
	got := subtractIntervals(a, b)
	want := []Interval{{0, 2}, {3, 5}, {7, 10}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Subtrahend covering everything leaves nothing.
	if got := subtractIntervals([]Interval{{1, 2}}, []Interval{{0, 5}}); len(got) != 0 {
		t.Fatalf("covered subtraction left %v", got)
	}
	// Empty subtrahend is identity.
	if got := subtractIntervals(a, nil); len(got) != 1 || got[0] != a[0] {
		t.Fatalf("identity subtraction broke: %v", got)
	}
}

func TestIntervalOverlapAndTotal(t *testing.T) {
	a := []Interval{{0, 5}, {10, 15}}
	b := []Interval{{3, 12}}
	if got := IntervalOverlap(a, b); math.Abs(got-4) > 1e-12 {
		t.Fatalf("overlap = %v, want 4", got)
	}
	if got := IntervalTotal(a); got != 10 {
		t.Fatalf("total = %v", got)
	}
	if got := IntervalOverlap(a, nil); got != 0 {
		t.Fatalf("overlap with empty = %v", got)
	}
}

// Property: subtract/overlap agree with a brute-force point sampling.
func TestIntervalAlgebraProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	genSet := func() []Interval {
		n := rng.Intn(5)
		var ivs []Interval
		for i := 0; i < n; i++ {
			s := rng.Float64() * 10
			ivs = append(ivs, Interval{s, s + rng.Float64()*3})
		}
		return normalizeIntervals(ivs)
	}
	contains := func(ivs []Interval, x float64) bool {
		for _, iv := range ivs {
			if x >= iv.Start && x < iv.End {
				return true
			}
		}
		return false
	}
	for trial := 0; trial < 100; trial++ {
		a, b := genSet(), genSet()
		diff := subtractIntervals(a, b)
		// Sample points: membership in diff == in a and not in b.
		for s := 0; s < 200; s++ {
			x := rng.Float64() * 14
			want := contains(a, x) && !contains(b, x)
			if got := contains(diff, x); got != want {
				t.Fatalf("trial %d x=%v: diff=%v want=%v (a=%v b=%v d=%v)", trial, x, got, want, a, b, diff)
			}
		}
		// Overlap via sampling (coarse agreement).
		const steps = 20000
		var approx float64
		for s := 0; s < steps; s++ {
			x := 14 * float64(s) / steps
			if contains(a, x) && contains(b, x) {
				approx += 14.0 / steps
			}
		}
		if got := IntervalOverlap(a, b); math.Abs(got-approx) > 0.05 {
			t.Fatalf("trial %d: overlap %v vs sampled %v", trial, got, approx)
		}
	}
}

func TestBusyIntervalsFromLog(t *testing.T) {
	f := makeLog(t) // Compute [0,10] both ranks; Read [2,3] on rank 1
	busy := busyIntervals(f, f.States(0, 10), 1, 0, 10)
	// Rank 1: busy = [0,2] + [3,10].
	if got := IntervalTotal(busy); math.Abs(got-9) > 1e-9 {
		t.Fatalf("rank 1 busy = %v (%v), want 9", got, busy)
	}
	busy0 := busyIntervals(f, f.States(0, 10), 0, 0, 10)
	if got := IntervalTotal(busy0); math.Abs(got-10) > 1e-9 {
		t.Fatalf("rank 0 busy = %v, want 10 (writes do not block)", got)
	}
	ratio := BusyOverlapRatio(f, []int{0, 1}, 0, 10)
	if ratio < 0.85 || ratio > 1.05 {
		t.Fatalf("overlap ratio = %v for almost fully parallel ranks", ratio)
	}
}
