// Package slog2 implements an SLOG-2-style visualization logfile: the
// frame-tree format Jumpshot displays, produced by converting a raw CLOG-2
// log. The conversion pairs state start/end events into interval drawables,
// pairs message send/receive halves into arrows, detects the "Equal
// Drawables" condition (distinct drawables with identical timestamps, a
// symptom of limited MPI_Wtime resolution), and organises everything into
// a binary bounding-box tree of frames whose capacity — the "frame size"
// conversion parameter — controls how much data a viewer touches at any
// zoom level. A file stores drawables and nothing derived from them: the
// striped rectangles of zoomed-out views are computed by the renderer
// from the states under its viewport.
package slog2

import (
	"fmt"
	"math"
	"slices"
)

// CategoryKind distinguishes state categories from event categories.
type CategoryKind uint8

// Category kinds.
const (
	KindState CategoryKind = iota
	KindEvent
)

// Category is a legend entry: one kind of drawable with display
// properties. The legend table in Jumpshot is exactly this list plus
// statistics computed from the drawables.
type Category struct {
	Name  string
	Color string
	Kind  CategoryKind
}

// State is an interval drawable on one rank's timeline: one call of a
// Pilot function, or a phase like Compute.
type State struct {
	Rank       int
	Cat        int // index into File.Categories
	Start, End float64
	// StartCargo/EndCargo carry the popup text logged with the state's
	// start and end events (line number, process name, worker index...).
	StartCargo string
	EndCargo   string
}

// Duration returns End-Start.
func (s State) Duration() float64 { return s.End - s.Start }

// Arrow is a message drawable from a send on one timeline to the matching
// receive on another. Its popup shows start and end times, duration, MPI
// tag and message size — and, as the paper notes, nothing else can be
// attached.
type Arrow struct {
	SrcRank, DstRank int
	Start, End       float64
	Tag, Size        int
}

// Event is a solo drawable — a bubble.
type Event struct {
	Rank  int
	Cat   int // index into File.Categories
	Time  float64
	Cargo string
}

// Frame is one node of the bounding-box tree. Drawables live in the
// deepest frame whose interval fully contains them; an interval spanning a
// split point stays in the parent.
type Frame struct {
	Start, End float64
	States     []State
	Arrows     []Arrow
	Events     []Event
	Left       *Frame
	Right      *Frame
}

// File is a complete SLOG-2 log.
type File struct {
	NumRanks   int
	Start, End float64
	Categories []Category
	Root       *Frame
	// Warnings carries conversion diagnostics, including the Equal
	// Drawables warnings.
	Warnings []string
}

// Walk visits every frame depth-first (parent before children).
func (f *File) Walk(visit func(*Frame)) { f.Frames(math.Inf(-1), math.Inf(1), visit) }

// Frames visits the frames overlapping [t0, t1] in tree order: a frame
// before its children, left before right. This is the viewer's fetch
// path: only frames under the viewport are touched, which is the point of
// the frame tree.
func (f *File) Frames(t0, t1 float64, visit func(*Frame)) {
	var rec func(fr *Frame)
	rec = func(fr *Frame) {
		if fr == nil || fr.End < t0 || fr.Start > t1 {
			return
		}
		visit(fr)
		rec(fr.Left)
		rec(fr.Right)
	}
	rec(f.Root)
}

// In reports whether the drawable intersects [t0, t1].
func (s *State) In(t0, t1 float64) bool { return s.End >= t0 && s.Start <= t1 }

// In reports whether the arrow intersects [t0, t1], whichever way it points.
func (a *Arrow) In(t0, t1 float64) bool {
	return max(a.Start, a.End) >= t0 && min(a.Start, a.End) <= t1
}

// In reports whether the event falls inside [t0, t1].
func (e *Event) In(t0, t1 float64) bool { return e.Time >= t0 && e.Time <= t1 }

// Ref is a drawable where it lives in its frame (D is a *State, *Arrow or
// *Event) with the time it sorts by: 16 bytes to sort and hand on instead
// of the drawable itself.
type Ref[P any] struct {
	At float64
	D  P
}

// SortRefs puts refs in time order. The sort is stable, so refs collected
// under Frames keep, among equal times, frame order (parent, left, right)
// and then their order inside the frame. That tie order is a contract:
// it decides document order in every tile, legend and search result.
// The comparison is "a < b" as sort.SliceStable had it, NaN included.
func SortRefs[P any](refs []Ref[P]) []Ref[P] {
	slices.SortStableFunc(refs, func(a, b Ref[P]) int { return cmpLess(a.At, b.At) })
	return refs
}

func cmpLess(a, b float64) int {
	switch {
	case a < b:
		return -1
	case b < a:
		return 1
	}
	return 0
}

// pick returns, in SortRefs order, the drawables in the frames under
// [t0, t1] that at admits, keyed by the time it gives.
func pick[T any](f *File, t0, t1 float64, list func(*Frame) []T, at func(*T) (float64, bool)) (refs []Ref[*T]) {
	f.Frames(t0, t1, func(fr *Frame) {
		ds := list(fr)
		for i := range ds {
			if t, ok := at(&ds[i]); ok {
				refs = append(refs, Ref[*T]{t, &ds[i]})
			}
		}
	})
	return SortRefs(refs)
}

// States, Arrows and Events return the drawables of one kind intersecting
// [t0, t1], in place, in start-time order (arrows by send time).
func (f *File) States(t0, t1 float64) []Ref[*State] {
	return pick(f, t0, t1, func(fr *Frame) []State { return fr.States },
		func(s *State) (float64, bool) { return s.Start, s.In(t0, t1) })
}

func (f *File) Arrows(t0, t1 float64) []Ref[*Arrow] {
	return pick(f, t0, t1, func(fr *Frame) []Arrow { return fr.Arrows },
		func(a *Arrow) (float64, bool) { return a.Start, a.In(t0, t1) })
}

func (f *File) Events(t0, t1 float64) []Ref[*Event] {
	return pick(f, t0, t1, func(fr *Frame) []Event { return fr.Events },
		func(e *Event) (float64, bool) { return e.Time, e.In(t0, t1) })
}

// Query returns copies of the drawables intersecting [t0, t1], in the
// order of States, Arrows and Events.
func (f *File) Query(t0, t1 float64) ([]State, []Arrow, []Event) {
	return Gather(f.States(t0, t1)), Gather(f.Arrows(t0, t1)), Gather(f.Events(t0, t1))
}

// Gather copies the drawables refs point at, once, into a slice of the
// final size: what sorting refs instead of drawables leaves to do.
func Gather[T any](refs []Ref[*T]) []T {
	if len(refs) == 0 {
		return nil
	}
	out := make([]T, len(refs))
	for i, r := range refs {
		out[i] = *r.D
	}
	return out
}

// All returns every drawable in the file.
func (f *File) All() (states []State, arrows []Arrow, events []Event) {
	f.Walk(func(fr *Frame) {
		states = append(states, fr.States...)
		arrows = append(arrows, fr.Arrows...)
		events = append(events, fr.Events...)
	})
	return
}

// CategoryIndex returns the index of the named category, or -1.
func (f *File) CategoryIndex(name string) int {
	for i, c := range f.Categories {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Depth returns the height of the frame tree.
func (f *File) Depth() int {
	var rec func(fr *Frame) int
	rec = func(fr *Frame) int {
		if fr == nil {
			return 0
		}
		l, r := rec(fr.Left), rec(fr.Right)
		if r > l {
			l = r
		}
		return l + 1
	}
	return rec(f.Root)
}

// CheckInvariants verifies structural soundness: every drawable fully
// inside its frame's interval, children inside parents. Tests call it;
// a well-behaved producer never trips it.
func (f *File) CheckInvariants() error {
	if f.Root == nil {
		return fmt.Errorf("slog2: nil root frame")
	}
	const eps = 1e-9
	var rec func(fr *Frame) error
	rec = func(fr *Frame) error {
		if fr == nil {
			return nil
		}
		if fr.End < fr.Start {
			return fmt.Errorf("slog2: frame [%v,%v] inverted", fr.Start, fr.End)
		}
		for _, s := range fr.States {
			if s.Start < fr.Start-eps || s.End > fr.End+eps {
				return fmt.Errorf("slog2: state [%v,%v] escapes frame [%v,%v]", s.Start, s.End, fr.Start, fr.End)
			}
			if s.End < s.Start {
				return fmt.Errorf("slog2: state [%v,%v] inverted", s.Start, s.End)
			}
			if s.Cat < 0 || s.Cat >= len(f.Categories) {
				return fmt.Errorf("slog2: state category %d out of range", s.Cat)
			}
		}
		for _, e := range fr.Events {
			if e.Time < fr.Start-eps || e.Time > fr.End+eps {
				return fmt.Errorf("slog2: event at %v escapes frame [%v,%v]", e.Time, fr.Start, fr.End)
			}
			if e.Cat < 0 || e.Cat >= len(f.Categories) {
				return fmt.Errorf("slog2: event category %d out of range", e.Cat)
			}
		}
		for _, a := range fr.Arrows {
			lo, hi := a.Start, a.End
			if hi < lo {
				lo, hi = hi, lo
			}
			if lo < fr.Start-eps || hi > fr.End+eps {
				return fmt.Errorf("slog2: arrow [%v,%v] escapes frame [%v,%v]", lo, hi, fr.Start, fr.End)
			}
		}
		for _, child := range []*Frame{fr.Left, fr.Right} {
			if child == nil {
				continue
			}
			if child.Start < fr.Start-eps || child.End > fr.End+eps {
				return fmt.Errorf("slog2: child frame [%v,%v] escapes parent [%v,%v]", child.Start, child.End, fr.Start, fr.End)
			}
			if err := rec(child); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(f.Root)
}
