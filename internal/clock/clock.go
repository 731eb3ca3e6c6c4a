// Package clock provides the wallclock substrate for the simulated MPI
// world. Real MPI programs read MPI_Wtime from per-node clocks that differ
// by offset and drift and that tick with limited resolution; MPE's
// Log_sync_clocks exists to undo exactly that. This package reproduces those
// properties so the logging pipeline has something real to synchronise.
//
// All readings are in seconds, as with MPI_Wtime.
package clock

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Source yields wallclock readings in seconds. Implementations must be safe
// for concurrent use.
type Source interface {
	// Now returns the current reading of this clock in seconds. Readings
	// are non-decreasing for well-formed sources.
	Now() float64
}

// Real is a Source backed by the process monotonic clock. All Real sources
// created from the same epoch agree exactly, which models ranks running on
// a single node.
type Real struct {
	epoch time.Time
}

// NewReal returns a Real source whose zero is the moment of the call.
func NewReal() *Real { return &Real{epoch: time.Now()} }

// Now implements Source.
func (r *Real) Now() float64 { return time.Since(r.epoch).Seconds() }

// Skewed wraps a base Source and distorts it the way a remote node's clock
// is distorted relative to "true" time:
//
//	reading = truncate((base + Offset) * (1 + Drift), Resolution)
//
// Offset is in seconds. Drift is dimensionless (5e-6 means the clock gains
// 5 microseconds per second). Resolution, if positive, truncates readings to
// a multiple of itself — this reproduces the limited resolution of
// MPI_Wtime that the paper identifies as the cause of the "Equal Drawables"
// conversion warning.
type Skewed struct {
	Base       Source
	Offset     float64
	Drift      float64
	Resolution float64
}

// NewSkewed builds a Skewed source over base.
func NewSkewed(base Source, offset, drift, resolution float64) *Skewed {
	return &Skewed{Base: base, Offset: offset, Drift: drift, Resolution: resolution}
}

// Now implements Source.
func (s *Skewed) Now() float64 {
	t := (s.Base.Now() + s.Offset) * (1 + s.Drift)
	return Truncate(t, s.Resolution)
}

// Truncate rounds t down to a multiple of res. A non-positive res leaves t
// unchanged.
func Truncate(t, res float64) float64 {
	if res <= 0 {
		return t
	}
	return math.Floor(t/res) * res
}

// Manual is a hand-driven Source for deterministic tests. Its readings only
// move when Set or Advance is called.
type Manual struct {
	mu  sync.Mutex
	now float64
}

// NewManual returns a Manual source initialised to start seconds.
func NewManual(start float64) *Manual { return &Manual{now: start} }

// Now implements Source.
func (m *Manual) Now() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Advance moves the clock forward by d seconds.
func (m *Manual) Advance(d float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if d < 0 {
		panic(fmt.Sprintf("clock: Manual.Advance by negative %v", d))
	}
	m.now += d
}

// Monotonic wraps any Source and clamps readings so they never decrease.
// Useful when a Skewed source with negative drift is sampled around a
// resolution boundary.
type Monotonic struct {
	Base Source

	mu   sync.Mutex
	last float64
}

// NewMonotonic wraps base in a Monotonic clamp.
func NewMonotonic(base Source) *Monotonic { return &Monotonic{Base: base} }

// Now implements Source.
func (m *Monotonic) Now() float64 {
	t := m.Base.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if t < m.last {
		t = m.last
	}
	m.last = t
	return t
}
