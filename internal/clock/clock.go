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
	// Now returns the current reading of this clock in seconds: a finite
	// reading no earlier than the one before it. The contract is the
	// logger's: a rank logs its records in the order it stamps them, and a
	// log whose rank goes back in time is refused (clog2.Block), at the
	// wrap-up merge by name.
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
// 5 microseconds per second) and greater than -1. Resolution, if positive,
// truncates readings to a multiple of itself — this reproduces the limited
// resolution of MPI_Wtime that the paper identifies as the cause of the
// "Equal Drawables" conversion warning. Each step of the reading is
// non-decreasing in the base's, so a Skewed source keeps the Source
// contract whenever its base does, at every resolution boundary.
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
