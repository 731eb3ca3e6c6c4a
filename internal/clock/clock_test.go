package clock

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestRealMonotone(t *testing.T) {
	r := NewReal()
	prev := r.Now()
	for i := 0; i < 1000; i++ {
		now := r.Now()
		if now < prev {
			t.Fatalf("Real went backwards: %v -> %v", prev, now)
		}
		prev = now
	}
}

func TestRealSharedEpochAgree(t *testing.T) {
	epoch := time.Now()
	a := NewRealAt(epoch)
	b := NewRealAt(epoch)
	if d := math.Abs(a.Now() - b.Now()); d > 0.05 {
		t.Fatalf("shared-epoch clocks disagree by %v s", d)
	}
	if !a.Epoch().Equal(epoch) {
		t.Fatalf("Epoch() = %v, want %v", a.Epoch(), epoch)
	}
}

func TestManual(t *testing.T) {
	m := NewManual(3)
	if got := m.Now(); got != 3 {
		t.Fatalf("Now() = %v, want 3", got)
	}
	m.Advance(1.5)
	if got := m.Now(); got != 4.5 {
		t.Fatalf("after Advance, Now() = %v, want 4.5", got)
	}
	m.Set(10)
	if got := m.Now(); got != 10 {
		t.Fatalf("after Set, Now() = %v, want 10", got)
	}
}

func TestManualPanicsOnBackwardsSet(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set backwards did not panic")
		}
	}()
	m := NewManual(5)
	m.Set(4)
}

func TestManualPanicsOnNegativeAdvance(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance did not panic")
		}
	}()
	NewManual(0).Advance(-1)
}

func TestSkewedOffsetAndDrift(t *testing.T) {
	base := NewManual(100)
	s := NewSkewed(base, 2.0, 0.01, 0)
	want := (100 + 2.0) * 1.01
	if got := s.Now(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestSkewedResolutionTruncates(t *testing.T) {
	base := NewManual(1.23456)
	s := NewSkewed(base, 0, 0, 1e-3)
	if got := s.Now(); got != 1.234 {
		t.Fatalf("Now() = %v, want 1.234", got)
	}
	// Two nearby instants collapse to the same tick: the root cause of the
	// paper's "Equal Drawables" warning.
	base.Advance(0.0002)
	if got := s.Now(); got != 1.234 {
		t.Fatalf("Now() after tiny advance = %v, want 1.234", got)
	}
	base.Advance(0.001)
	if got := s.Now(); got != 1.235 {
		t.Fatalf("Now() after 1ms advance = %v, want 1.235", got)
	}
}

func TestTruncate(t *testing.T) {
	cases := []struct{ t, res, want float64 }{
		{1.9999, 1e-3, 1.999},
		{1.9999, 0, 1.9999},
		{1.9999, -1, 1.9999},
		{0, 1e-3, 0},
		{2.5, 0.5, 2.5},
		{2.74, 0.5, 2.5},
	}
	for _, c := range cases {
		if got := Truncate(c.t, c.res); got != c.want {
			t.Errorf("Truncate(%v, %v) = %v, want %v", c.t, c.res, got, c.want)
		}
	}
}

func TestMonotonicClampsBackwardSteps(t *testing.T) {
	m := NewManual(0)
	// A skewed clock with strong negative drift plus a manual base that we
	// sample before and after an offset-induced step could go backwards;
	// emulate directly with a wrapper source.
	seq := []float64{1, 2, 1.5, 3}
	i := 0
	src := sourceFunc(func() float64 { v := seq[i%len(seq)]; i++; return v })
	mono := NewMonotonic(src)
	var prev float64
	for j := 0; j < len(seq); j++ {
		now := mono.Now()
		if now < prev {
			t.Fatalf("Monotonic went backwards: %v -> %v", prev, now)
		}
		prev = now
	}
	_ = m
}

type sourceFunc func() float64

func (f sourceFunc) Now() float64 { return f() }

// Property: Skewed with positive resolution always yields a multiple of the
// resolution (within floating error).
func TestSkewedResolutionProperty(t *testing.T) {
	f := func(ms uint16, off int8) bool {
		base := NewManual(float64(ms) / 7)
		s := NewSkewed(base, float64(off)/13, 0, 1e-3)
		v := s.Now()
		q := v / 1e-3
		return math.Abs(q-math.Round(q)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
