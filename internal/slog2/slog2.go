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
	"math/bits"
	"sync"
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

// SortRefs puts refs in time order. The order is stable, so refs
// collected under Frames keep, among equal times, frame order (parent,
// left, right) and then their order inside the frame. That tie order is a
// contract: it decides document order in every tile, legend and search
// result. Times compare as numbers, -0 equal to +0, which is the order a
// stable sort by "a < b" gives. A File that ReadFile returns or ConvertReader makes
// has no NaN time, so that order is total; a NaN in a hand-built File
// sorts by its bits, past +Inf (or before -Inf, signed).
//
// It is a most-significant-digit radix sort on the time's bits, over the
// bits in which the times differ, with a digit of 4 to 11 bits a level:
// a ref passes at most 16 levels, and a level costs a pass over its refs.
// A level moves each ref's key and index, 12 bytes and no pointers, and
// the refs move once, at the end, into the places the indices say. A
// bucket of up to smallSort refs is finished by insertion.
func SortRefs[P any](refs []Ref[P]) []Ref[P] {
	n := len(refs)
	if n <= smallSort {
		for i := 1; i < n; i++ {
			for j := i; j > 0 && refs[j].At < refs[j-1].At; j-- {
				refs[j], refs[j-1] = refs[j-1], refs[j]
			}
		}
		return refs
	}
	buf, _ := sortScratch.Get().(*radixBuf)
	if buf == nil || len(buf.idx) < 2*n {
		buf = &radixBuf{make([]uint64, 2*n), make([]uint32, 2*n)}
	}
	defer sortScratch.Put(buf)
	r := radixSort{buf.keys[:n], buf.keys[n : 2*n], buf.idx[:n], buf.idx[n : 2*n]}
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for i := range refs {
		k := orderBits(refs[i].At)
		r.keys[i], r.idx[i] = k, uint32(i)
		lo, hi = min(lo, k), max(hi, k)
	}
	// The bits above the highest one in which some key differs from lo are
	// every key's.
	r.sort(uint(bits.Len64(hi ^ lo)))
	// Slot j takes what was at idx[j]: follow each cycle once, marking a
	// slot done by pointing it at itself.
	idx := r.idx
	for j := range idx {
		if int(idx[j]) == j {
			continue
		}
		x := refs[j]
		for at := j; ; {
			from := int(idx[at])
			idx[at] = uint32(at)
			if from == j {
				refs[at] = x
				break
			}
			refs[at] = refs[from]
			at = from
		}
	}
	return refs
}

// smallSort is the most refs SortRefs, and the most keys a radixSort,
// sorts by insertion.
const smallSort = 48

// sortScratch keeps a radixBuf between sorts. A server sorts every window
// it draws, and without it the scratch would be most of what a query
// allocates.
var sortScratch sync.Pool

// radixBuf is a sort's keys and indices and their scratch, end to end:
// nothing in it is read before the sort writes it.
type radixBuf struct {
	keys []uint64
	idx  []uint32
}

// radixSort is the keys (orderBits) and indices of the refs SortRefs
// orders, and scratch of the same length for each.
type radixSort struct {
	keys, ktmp []uint64
	idx, itmp  []uint32
}

// sort stably orders the keys, which agree in every bit from hi up, by
// their bits below hi: by a digit of the bits just below it, wide enough
// to leave about four keys a bucket (up to 11 bits), and then each bucket
// by the bits below the digit. A digit that would reach below bit 0 is
// taken from bit 0, where its bits from hi up are equal across the keys.
func (r radixSort) sort(hi uint) {
	n := len(r.keys)
	if n <= smallSort {
		insertion(r.keys, r.idx)
		return
	}
	// The counts live on the stack, zeroed: a small digit's in a small array.
	width := min(bits.Len(uint(n))-2, 11)
	if width <= 7 {
		var count [1 << 7]uint32
		r.level(hi, count[:1<<width])
	} else {
		var count [1 << 11]uint32
		r.level(hi, count[:1<<width])
	}
}

// level is one level of sort, with a digit of log2(len(at)) bits, and at
// zeroed, one count for each of its values.
func (r radixSort) level(hi uint, at []uint32) {
	keys, idx := r.keys, r.idx
	width := uint(bits.TrailingZeros(uint(len(at))))
	shift := hi - min(hi, width)
	mask := uint64(len(at) - 1)
	for _, k := range keys {
		at[k>>shift&mask]++
	}
	if at[keys[0]>>shift&mask] == uint32(len(keys)) { // one bucket: nothing moves
		if shift > 0 {
			r.sort(shift)
		}
		return
	}
	var sum uint32
	for b, c := range at {
		at[b], sum = sum, sum+c
	}
	for i, k := range keys {
		b := k >> shift & mask
		r.ktmp[at[b]], r.itmp[at[b]] = k, idx[i]
		at[b]++
	}
	copy(keys, r.ktmp)
	copy(idx, r.itmp)
	if shift == 0 {
		return
	}
	// at[b] is now where bucket b ends.
	from := uint32(0)
	for _, to := range at {
		switch n := to - from; {
		case n <= 1:
		case n <= smallSort:
			insertion(keys[from:to], idx[from:to])
		default:
			radixSort{keys[from:to], r.ktmp[from:to], idx[from:to], r.itmp[from:to]}.sort(shift)
		}
		from = to
	}
}

// insertion stably sorts keys, and idx along with them, by insertion.
func insertion(keys []uint64, idx []uint32) {
	for i := 1; i < len(keys); i++ {
		k, x := keys[i], idx[i]
		j := i
		for ; j > 0 && k < keys[j-1]; j-- {
			keys[j], idx[j] = keys[j-1], idx[j-1]
		}
		keys[j], idx[j] = k, x
	}
}

// orderBits maps t to a uint64 that orders as t does, -0 and +0 alike:
// the sign bit set on a positive value, every bit flipped on a negative.
func orderBits(t float64) uint64 {
	if t == 0 {
		t = 0 // -0 folded onto +0
	}
	b := math.Float64bits(t)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// pick returns, in SortRefs order, the drawables in the frames under
// [t0, t1] that at admits, keyed by the time it gives. The frames are
// walked twice, to count and then to fill a slice of that size: a window
// admits few of the drawables its frames hold, and growing the slice by
// append cost more than the count.
func pick[T any](f *File, t0, t1 float64, list func(*Frame) []T, at func(*T) (float64, bool)) []Ref[*T] {
	n := 0
	f.Frames(t0, t1, func(fr *Frame) {
		ds := list(fr)
		for i := range ds {
			if _, ok := at(&ds[i]); ok {
				n++
			}
		}
	})
	if n == 0 {
		return nil
	}
	refs := make([]Ref[*T], 0, n)
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

// escapes reports whether a drawable spanning [lo, hi] reaches outside
// frame fr by more than a nanosecond's rounding.
func escapes(lo, hi float64, fr *Frame) bool {
	const eps = 1e-9
	return lo < fr.Start-eps || hi > fr.End+eps
}

// CheckInvariants verifies structural soundness: every drawable fully
// inside its frame's interval, children inside parents. Tests call it;
// a well-behaved producer never trips it.
func (f *File) CheckInvariants() error {
	if f.Root == nil {
		return fmt.Errorf("slog2: nil root frame")
	}
	var rec func(fr *Frame) error
	rec = func(fr *Frame) error {
		if fr == nil {
			return nil
		}
		if fr.End < fr.Start {
			return fmt.Errorf("slog2: frame [%v,%v] inverted", fr.Start, fr.End)
		}
		for _, s := range fr.States {
			if escapes(s.Start, s.End, fr) {
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
			if escapes(e.Time, e.Time, fr) {
				return fmt.Errorf("slog2: event at %v escapes frame [%v,%v]", e.Time, fr.Start, fr.End)
			}
			if e.Cat < 0 || e.Cat >= len(f.Categories) {
				return fmt.Errorf("slog2: event category %d out of range", e.Cat)
			}
		}
		for _, a := range fr.Arrows {
			lo, hi := min(a.Start, a.End), max(a.Start, a.End)
			if escapes(lo, hi, fr) {
				return fmt.Errorf("slog2: arrow [%v,%v] escapes frame [%v,%v]", lo, hi, fr.Start, fr.End)
			}
		}
		for _, child := range []*Frame{fr.Left, fr.Right} {
			if child == nil {
				continue
			}
			if escapes(child.Start, child.End, fr) {
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
