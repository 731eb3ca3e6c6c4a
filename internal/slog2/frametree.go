package slog2

import (
	"math/bits"
	"sync"
)

// frameBuilder decides the bounding-box tree and lays each kind's array
// out frame by frame, building subtrees concurrently when spare worker
// tokens are available. The tree's shape and contents depend only on its
// inputs, never on scheduling.
type frameBuilder struct {
	capacity int
	sem      chan struct{} // spare-worker tokens (nil/empty = sequential)
	wg       sync.WaitGroup
	states   []State
	arrows   []Arrow
	events   []Event
	// perm is each kind's layout: slot j of the laid-out array takes the
	// drawable at index perm[kind][j].i of the array as it came in.
	perm [kinds][]key
}

// The kinds of drawable, in the order a frameBuilder keeps them.
const (
	kindStates = iota
	kindArrows
	kindEvents
	kinds
)

// buildFrames returns the root of the tree over [start, end] and leaves
// states, arrows and events laid out in its frames' order, which the
// frames alias. The tree is decided on keys alone, before any drawable
// moves; each then moves once, to its frame's slot.
func buildFrames(start, end float64, states []State, arrows []Arrow, events []Event, capacity, workers int) *Frame {
	fb := &frameBuilder{capacity: capacity, states: states, arrows: arrows, events: events}
	if workers > 1 {
		fb.sem = make(chan struct{}, workers-1)
	}
	var ks [kinds]keys
	for kind, n := range [kinds]int{len(states), len(arrows), len(events)} {
		ks[kind] = newKeys(n)
		fb.perm[kind] = ks[kind].in
	}
	root := fb.build(start, end, ks, 0)
	fb.wg.Wait()
	permute(states, fb.perm[kindStates])
	permute(arrows, fb.perm[kindArrows])
	permute(events, fb.perm[kindEvents])
	return root
}

// key is what the tree is decided on: the node of a block a drawable ends
// its way down at, and its index in the kind's array — 8 bytes and no
// pointers, where a State is 64.
type key struct {
	node uint32
	i    int32
}

// keys is one kind's drawables on their way down the tree: in holds a
// subtree's keys in (rank, time, sequence) order, tmp is scratch of the
// same length, and at is the slot of the laid-out array that in[0] stands
// for. A block of levels lays in out into tmp and hands each subtree
// below it its share of the two swapped, so the whole tree is decided on
// two arrays of keys a kind.
type keys struct {
	in, tmp []key
	at      int
}

// newKeys returns the keys of n drawables. Each block copies its keys
// back into the array in starts out as, in the order it lays them out,
// before a subtree below it takes its share of that array as scratch and
// copies its own back in turn; once the tree is built, the array is the
// layout.
func newKeys(n int) keys {
	in := make([]key, n)
	for i := range in {
		in[i].i = int32(i)
	}
	return keys{in: in, tmp: make([]key, n)}
}

// blockDepth is how many levels of the tree a block decides at once: a
// drawable is looked up, and its key moved, once every blockDepth levels.
const blockDepth = 8

// blockNodes numbers the nodes of a block as a heap: node 1 is its root,
// node j's children are 2j and 2j+1, and the nodes blockDepth levels
// down, the roots of the subtrees below the block, are blockNodes/2 to
// blockNodes-1.
const blockNodes = 2 << blockDepth

// router routes drawables through the blockDepth levels below a node
// over [start, end]. Its bounds are the split points a build meets there,
// (start+end)/2 at each level, in order from the left: bounds[j] for j in
// [1, 256). The 256 nodes blockDepth levels down lie between consecutive
// bounds, so a point's node is how many bounds lie left of it: the point's
// place in [start, end] scaled to 256 is that count but for float rounding
// at a bound, and comparing with the bounds at hand settles it.
type router struct {
	start, scale float64
	bounds       [blockNodes / 2]float64
}

func (rt *router) init(start, end float64) {
	rt.start, rt.scale = start, blockNodes/2/(end-start)
	// fill sets the split point of the node over [lo, hi] at bounds[at],
	// and its children's half as far to either side.
	var fill func(lo, hi float64, at, half int)
	fill = func(lo, hi float64, at, half int) {
		mid := (lo + hi) / 2
		rt.bounds[at] = mid
		if half > 0 {
			fill(lo, mid, at-half, half/2)
			fill(mid, hi, at+half, half/2)
		}
	}
	fill(start, end, blockNodes/4, blockNodes/8)
}

// below returns how many bounds lie at or left of t, or strictly left of
// it when strict: the node blockDepth levels down that t goes to when it
// goes right at a split point it lies at, or left.
func (rt *router) below(t float64, strict bool) int {
	const last = len(rt.bounds) - 1
	n := min(max(int((t-rt.start)*rt.scale), 0), last)
	if strict {
		for n < last && rt.bounds[n+1] < t {
			n++
		}
		for n > 0 && rt.bounds[n] >= t {
			n--
		}
		return n
	}
	for n < last && rt.bounds[n+1] <= t {
		n++
	}
	for n > 0 && rt.bounds[n] > t {
		n--
	}
	return n
}

// node returns the block node the way down of a drawable spanning
// [lo, hi], lo <= hi, ends at: at each split point mid it goes left when
// hi <= mid, else right when lo >= mid, else it spans mid and stays, so
// its way ends at the node whose split point it spans, or at the one
// blockDepth levels down it reaches. Its low end goes right at a split
// point it lies at and its high end left, so the two ends part at the
// split point the drawable spans, if any; they only part the other way
// when lo and hi are that split point, and the drawable goes left there,
// as its high end does. An instant (an event) never stays: it goes left
// before the split point and right from it on.
func (rt *router) node(lo, hi float64, instant bool) uint32 {
	l := rt.below(lo, false)
	if instant {
		return blockNodes/2 | uint32(l)
	}
	h := rt.below(hi, true)
	if l < h {
		d := bits.LeadingZeros8(uint8(l ^ h))
		return 1<<d | uint32(l>>(blockDepth-d))
	}
	return blockNodes/2 | uint32(h)
}

// block is the scratch of deciding one block, by node.
type block struct {
	router
	// ends counts a kind's drawables whose way down ends at the node: they
	// span its split point, or it is blockDepth levels down.
	ends [kinds][blockNodes]int32
	// through counts a kind's drawables whose way down passes the node.
	through [kinds][blockNodes]int32
	// frame is the node whose frame a drawable whose way ends at the node
	// goes to, and next that frame's next free slot of a kind.
	frame [blockNodes]uint16
	next  [kinds][blockNodes]int32
}

// leaf reports whether a node at depth holding n drawables over
// [start, end] keeps them all, unsplit.
func (fb *frameBuilder) leaf(n, depth int, start, end float64) bool {
	return n <= fb.capacity || depth >= MaxTreeDepth || end <= start
}

// build constructs the subtree for [start, end] at depth, blockDepth
// levels at a time. Drawables fully inside a half of a node go down;
// spanners stay at the node. A block routes each drawable of the subtree
// down its levels to the node its way ends at (router), counts what
// passes every node, decides which nodes split as a build one level at a
// time would, and lays the keys out in one stable pass: every node's
// region as [left | right | here], a leaf's as all it holds. The subtrees
// below the block are built the same way, concurrently when spare worker
// tokens are available.
func (fb *frameBuilder) build(start, end float64, ks [kinds]keys, depth int) *Frame {
	var n [kinds]int
	for kind := range ks {
		n[kind] = len(ks[kind].in)
	}
	if fb.leaf(n[0]+n[1]+n[2], depth, start, end) {
		fr := &Frame{Start: start, End: end}
		for kind := range ks {
			copy(fb.perm[kind][ks[kind].at:], ks[kind].in)
		}
		fb.hold(fr, ks, [kinds]int{}, n, true)
		return fr
	}

	b := new(block)
	b.init(start, end)
	for kind := range ks {
		b.route(fb, kind, ks[kind].in)
		t := &b.through[kind]
		for j := blockNodes - 1; j > 0; j-- {
			t[j] = b.ends[kind][j]
			if j < blockNodes/2 {
				t[j] += t[2*j] + t[2*j+1]
			}
		}
	}

	type subtree struct {
		node       int
		start, end float64
		dst        **Frame
	}
	var subtrees []subtree
	// lay decides node j over [start, end] at depth and the nodes under
	// it, and sets dst to its Frame; its region of each kind starts at
	// slot at, counting from the block's, and lay returns where it ends.
	var lay func(j int, start, end float64, depth int, at [kinds]int, dst **Frame) [kinds]int
	lay = func(j int, start, end float64, depth int, at [kinds]int, dst **Frame) [kinds]int {
		var through, ends [kinds]int
		for kind := range through {
			through[kind], ends[kind] = int(b.through[kind][j]), int(b.ends[kind][j])
		}
		switch {
		case j >= blockNodes/2:
			b.frameAt(j, at)
			subtrees = append(subtrees, subtree{j, start, end, dst})
		case fb.leaf(through[0]+through[1]+through[2], depth, start, end):
			// Every way down that passes j ends in its frame.
			for row, width := j, 1; row < blockNodes; row, width = 2*row, 2*width {
				for x := row; x < row+width; x++ {
					b.frame[x] = uint16(j)
				}
			}
			b.frameAt(j, at)
			*dst = &Frame{Start: start, End: end}
			fb.hold(*dst, ks, at, through, true)
		default:
			fr := &Frame{Start: start, End: end}
			*dst = fr
			mid := (start + end) / 2
			here := at
			if l := 2 * j; b.passes(l) {
				here = lay(l, start, mid, depth+1, here, &fr.Left)
			}
			if r := 2*j + 1; b.passes(r) {
				here = lay(r, mid, end, depth+1, here, &fr.Right)
			}
			b.frameAt(j, here)
			fb.hold(fr, ks, here, ends, false)
		}
		for kind := range at {
			at[kind] += through[kind]
		}
		return at
	}
	var root *Frame
	lay(1, start, end, depth, [kinds]int{}, &root)

	for kind := range ks {
		k, next := ks[kind], &b.next[kind]
		for _, x := range k.in {
			f := b.frame[x.node]
			k.tmp[next[f]] = x
			next[f]++
		}
		copy(fb.perm[kind][k.at:], k.tmp)
	}
	for _, sub := range subtrees {
		var sk [kinds]keys
		for kind, k := range ks {
			hi := int(b.next[kind][sub.node])
			lo := hi - int(b.through[kind][sub.node])
			sk[kind] = keys{k.tmp[lo:hi:hi], k.in[lo:hi:hi], k.at + lo}
		}
		fb.spawn(func() { *sub.dst = fb.build(sub.start, sub.end, sk, depth+blockDepth) })
	}
	return root
}

// route sets the node of the block each key's way down ends at, and
// counts the keys that end at each.
func (b *block) route(fb *frameBuilder, kind int, in []key) {
	ends := &b.ends[kind]
	switch kind {
	case kindStates:
		for j := range in {
			s := &fb.states[in[j].i]
			in[j].node = b.node(s.Start, s.End, false)
			ends[in[j].node]++
		}
	case kindArrows:
		for j := range in {
			a := &fb.arrows[in[j].i]
			in[j].node = b.node(min(a.Start, a.End), max(a.Start, a.End), false)
			ends[in[j].node]++
		}
	default:
		for j := range in {
			t := fb.events[in[j].i].Time
			in[j].node = b.node(t, t, true)
			ends[in[j].node]++
		}
	}
}

// passes reports whether any drawable's way down passes node j.
func (b *block) passes(j int) bool {
	return b.through[kindStates][j]+b.through[kindArrows][j]+b.through[kindEvents][j] > 0
}

// frameAt makes node j's frame the one the ways that end at j go to,
// with its free slots from at on.
func (b *block) frameAt(j int, at [kinds]int) {
	b.frame[j] = uint16(j)
	for kind := range at {
		b.next[kind][j] = int32(at[kind])
	}
}

// hold gives fr, of each kind, the n[kind] drawables whose keys lie from
// slot at[kind] of ks[kind]'s region on: of the events too on a leaf.
func (fb *frameBuilder) hold(fr *Frame, ks [kinds]keys, at, n [kinds]int, leaf bool) {
	fr.States = slots(fb.states, ks[kindStates], at[kindStates], n[kindStates])
	fr.Arrows = slots(fb.arrows, ks[kindArrows], at[kindArrows], n[kindArrows])
	if leaf {
		fr.Events = slots(fb.events, ks[kindEvents], at[kindEvents], n[kindEvents])
	}
}

// slots are the n slots of the laid-out array all becomes from slot at of
// k's region on.
func slots[T any](all []T, k keys, at, n int) []T {
	at += k.at
	return all[at : at+n : at+n]
}

// spawn runs fn on a spare worker when a token is free, else inline.
func (fb *frameBuilder) spawn(fn func()) {
	select {
	case fb.sem <- struct{}{}:
		fb.wg.Add(1)
		go func() {
			defer fb.wg.Done()
			defer func() { <-fb.sem }()
			fn()
		}()
	default:
		fn()
	}
}

// permute lays xs out as perm says, in place: slot j takes what was at
// xs[perm[j].i]. It follows each cycle of perm once, so every element
// moves once, and leaves every perm[j].i at j.
func permute[T any](xs []T, perm []key) {
	for j := range perm {
		if int(perm[j].i) == j {
			continue
		}
		x := xs[j]
		for at := j; ; {
			from := int(perm[at].i)
			perm[at].i = int32(at)
			if from == j {
				xs[at] = x
				break
			}
			xs[at] = xs[from]
			at = from
		}
	}
}
