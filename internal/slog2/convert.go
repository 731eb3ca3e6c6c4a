package slog2

import (
	"fmt"
	"io"
	"runtime"
	"strings"

	"repro/internal/clog2"
	"repro/internal/mpe"
)

// DefaultFrameCapacity is the default "frame size": the maximum number of
// drawables stored in one frame before it splits. The paper notes this
// conversion parameter governs "the amount of data initially displayed by
// the visualization tool".
const DefaultFrameCapacity = 256

// MaxTreeDepth bounds tree height regardless of capacity.
const MaxTreeDepth = 24

// ConvertOptions tunes the CLOG-2 → SLOG-2 conversion.
type ConvertOptions struct {
	// FrameCapacity is the maximum drawable count per frame (0 = default).
	FrameCapacity int
	// Workers sizes the per-rank walk that reads a log through its block
	// table (no more workers than ranks with blocks) and the frame-tree
	// build, which hands subtrees to spare workers. 0 means
	// runtime.GOMAXPROCS(0). The output is byte-identical at every worker
	// count: each rank is folded on its own and the ranks are laid out in
	// (rank, time, sequence) order before frame insertion, so parallelism
	// never changes the result.
	Workers int
}

// workers resolves the effective worker count.
func (o ConvertOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Report carries conversion diagnostics, mirroring the chatty output of
// the real clog2TOslog2 tool.
type Report struct {
	States         int
	Arrows         int
	Events         int
	EqualDrawables int // drawables sharing category and identical times
	UnmatchedSends int
	UnmatchedRecvs int
	NestingErrors  int // mismatched state start/end pairs
	Warnings       []string
}

func (r *Report) warnf(format string, args ...any) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

// paired is what the converter keeps of a state as it closes, and solo of
// a solo event: times, category and where their cargo lies in the log's
// text (cargoText), 40 and 24 bytes without a pointer for the collector to
// scan. They become States and Events in the final layout.
type paired struct {
	start, end       float64
	startRef, endRef uint64
	cat              int32
}

type solo struct {
	t   float64
	ref uint64
	cat int32 // among the event definitions
}

// maxChunk is the most drawables a chunk of a rank's holds: chunks double
// up to it, so a long rank is kept in pieces that are never copied to grow,
// and a short one in one small piece.
const maxChunk = 4 << 10

// chunks is one rank's drawables of a kind, in file order.
type chunks[T any] struct {
	cs [][]T
	n  int
}

func (c *chunks[T]) add(x T) {
	last := len(c.cs) - 1
	if last < 0 || len(c.cs[last]) == cap(c.cs[last]) {
		c.cs = append(c.cs, make([]T, 0, min(max(c.n, 64), maxChunk)))
		last++
	}
	c.cs[last] = append(c.cs[last], x)
	c.n++
}

// textPiece is the most cargo text one piece of the log's text holds, so
// that the text is never copied to grow; a cargo never straddles two
// pieces.
const textPiece = 64 << 10

// cargoText is the log's cargo text, in pieces that a strings.Builder
// hands out as strings without a copy. A cargo's ref is its offset in the
// text, shifted left by 8, or'd with its length; an empty cargo's is 0.
type cargoText struct {
	pieces []string
	cur    strings.Builder
}

func (c *cargoText) add(cargo []byte) uint64 {
	if len(cargo) == 0 {
		return 0
	}
	if c.cur.Len()+len(cargo) > textPiece {
		c.pieces = append(c.pieces, c.cur.String())
		c.cur = strings.Builder{}
	}
	if c.cur.Cap()-c.cur.Len() < len(cargo) {
		// The first piece doubles from 1 KiB, where appending would grow
		// it by a quarter; every later one is whole from the start.
		grow := max(1024-c.cur.Cap(), len(cargo))
		if len(c.pieces) > 0 {
			grow = textPiece
		}
		c.cur.Grow(grow)
	}
	at := len(c.pieces)*textPiece + c.cur.Len()
	c.cur.Write(cargo)
	return uint64(at)<<8 | uint64(len(cargo))
}

// of returns the cargo ref addresses, once seal has taken the last piece.
func (c *cargoText) of(ref uint64) string {
	off, n := ref>>8, ref&0xff
	if n == 0 {
		return ""
	}
	return c.pieces[off/textPiece][off%textPiece:][:n]
}

func (c *cargoText) seal() { c.pieces = append(c.pieces, c.cur.String()) }

// rankDraws is what the converter keeps of one rank as its blocks stream
// in: its fold, its states and events in file order, which the reader
// holds to time order, the cargo text they point into, its message halves,
// its nesting errors and its warnings in that order.
type rankDraws struct {
	c        *converter
	fold     *clog2.Fold
	states   chunks[paired]
	events   chunks[solo]
	text     cargoText
	msgs     clog2.Messages
	nesting  int
	warnings []string
}

func (rd *rankDraws) warnf(format string, args ...any) {
	rd.warnings = append(rd.warnings, fmt.Sprintf(format, args...))
}

// converter is the fold's third observer, beside the profile and the
// verdict: each rank's states pair as its blocks stream in, on as many
// workers as the walk runs (clog2.EachRank), and finish lays the ranks out
// in rank order. The definitions lead the log (clog2.Block) and the walk
// decodes them first, so every category is known before any record names
// it; nothing here is written once the walk has begun.
type converter struct {
	numRanks  int
	etypes    *clog2.Etypes
	stateCats []Category
	eventCats []Category
	stateCat  map[int32]int32 // state id -> index in stateCats
	eventCat  map[int32]int32 // solo etype -> index in eventCats
}

// ConvertReader converts the CLOG-2 log r holds, read as a stream in one
// pass, one block of it held at a time; a file is read rank by rank
// through its block table (ConvertInput of clog2.FileInput, as
// vis.ConvertFile does), to the same output.
func ConvertReader(r io.Reader, opts ConvertOptions) (*File, *Report, error) {
	return ConvertInput(clog2.StreamInput(r), opts)
}

// ConvertInput converts the CLOG-2 log in holds rank by rank
// (clog2.EachRank): through its block table on opts.Workers workers, each
// holding one block of the log at a time, or as a stream in one pass; the
// output is the same either way. The reader has held every block to the
// rule of a block (clog2.Block), so every record is of its block's rank,
// every peer a rank of the log, each rank's records come in time order,
// and the definitions first.
func ConvertInput(in clog2.Input, opts ConvertOptions) (*File, *Report, error) {
	var c *converter
	ranks, _, err := clog2.EachRank(in, clog2.MatchAll(), opts.workers(), func(numRanks int, defs []clog2.Record) func(int32) *rankDraws {
		c = newConverter(numRanks, defs)
		return func(rank int32) *rankDraws { return &rankDraws{c: c, fold: clog2.NewFold(c.etypes, rank)} }
	})
	if err != nil {
		return nil, nil, err
	}
	f, rep := c.finish(ranks, opts)
	return f, rep, nil
}

// newConverter reads a log's definitions into its categories: states
// first, then events, each in file order.
func newConverter(numRanks int, defs []clog2.Record) *converter {
	c := &converter{numRanks: numRanks, etypes: clog2.NewEtypes(defs), stateCat: map[int32]int32{}, eventCat: map[int32]int32{}}
	for _, d := range defs {
		switch d.Type {
		case clog2.RecStateDef:
			c.stateCat[d.ID] = int32(len(c.stateCats))
			c.stateCats = append(c.stateCats, Category{Name: d.Name, Color: d.Color, Kind: KindState})
		case clog2.RecEventDef:
			c.eventCat[d.ID] = int32(len(c.eventCats))
			c.eventCats = append(c.eventCats, Category{Name: d.Name, Color: d.Color, Kind: KindEvent})
		}
	}
	return c
}

// Visit observes one of the rank's blocks through its fold.
func (rd *rankDraws) Visit(b clog2.Block) error {
	for i := range b.Records {
		rd.add(&b.Records[i])
	}
	return nil
}

// add observes one record through the fold.
func (rd *rankDraws) add(rec *clog2.Record) {
	fold := rd.fold
	switch fold.Add(rec) {
	case clog2.StepMsg:
		rd.msgs.Add(rec.Rank, rec.Aux1, rec.Aux2, rec.Dir, clog2.MsgHalf{Time: rec.Time, Size: rec.Aux3})
	case clog2.StepOpen:
		fold.SetRef(rd.text.add(rec.CargoBytes()))
	case clog2.StepSolo:
		cat, ok := rd.c.eventCat[rec.ID]
		if !ok {
			rd.warnf("rank %d: event %d has no definition", fold.Rank, rec.ID-clog2.SoloBase)
			return
		}
		rd.events.add(solo{t: rec.Time, ref: rd.text.add(rec.CargoBytes()), cat: cat})
	case clog2.StepOrphan:
		rd.nesting++
		rd.warnf("rank %d: end of state %d at %v with no open state", fold.Rank, fold.Closed.ID, rec.Time)
	case clog2.StepClose:
		id, top := fold.Closed.ID, &fold.Popped
		if top.ID != id {
			rd.nesting++
			rd.warnf("rank %d: state %d closed while %d open at %v", fold.Rank, id, top.ID, rec.Time)
		}
		if string(rec.CargoBytes()) == mpe.SyntheticEndCargo {
			// The logger closed this state for us at wrap-up; it is still a
			// nesting error in the program being debugged.
			rd.nesting++
			rd.warnf("rank %d: state %d left open, closed synthetically at %v", fold.Rank, id, rec.Time)
		}
		cat, ok := rd.c.stateCat[id]
		if !ok {
			rd.warnf("rank %d: state %d has no definition", fold.Rank, id)
			return
		}
		rd.states.add(paired{start: top.Start, end: rec.Time, startRef: top.Ref, endRef: rd.text.add(rec.CargoBytes()), cat: cat})
	}
}

// finish lays each kind of drawable out in one array of exactly its
// drawables, in rank order (ranks come in it) and, within a rank, in file
// order: the global (rank, time, sequence) order frames need. Then come
// the cross-rank arrow join and the frame-tree build. Warnings come rank
// by rank, then by message key, so the output — down to warning order — is
// the same at any worker count. Each kind's drawables live in one array
// from the layout to the frames that hold them (DESIGN §4).
func (c *converter) finish(ranks []*rankDraws, opts ConvertOptions) (*File, *Report) {
	capacity := opts.FrameCapacity
	if capacity <= 0 {
		capacity = DefaultFrameCapacity
	}
	rep := &Report{}

	// Category table: states first, then events, in file order.
	cats := append(c.stateCats, c.eventCats...)
	eventBase := len(c.stateCats)
	var nStates, nEvents int
	for _, rd := range ranks {
		nStates += rd.states.n
		nEvents += rd.events.n
	}
	states := make([]State, 0, nStates)
	events := make([]Event, 0, nEvents)
	var msgs clog2.Messages
	for _, rd := range ranks {
		rank := int(rd.fold.Rank)
		rd.text.seal()
		for _, cs := range rd.states.cs {
			for _, p := range cs {
				states = append(states, State{Rank: rank, Cat: int(p.cat), Start: p.start, End: p.end,
					StartCargo: rd.text.of(p.startRef), EndCargo: rd.text.of(p.endRef)})
			}
		}
		for _, cs := range rd.events.cs {
			for _, e := range cs {
				events = append(events, Event{Rank: rank, Cat: eventBase + int(e.cat), Time: e.t, Cargo: rd.text.of(e.ref)})
			}
		}
		rep.NestingErrors += rd.nesting
		rep.Warnings = append(rep.Warnings, rd.warnings...)
		for _, o := range rd.fold.Open() {
			rep.NestingErrors++
			rep.warnf("rank %d: state %d opened at %v never closed", rank, o.ID, o.Start)
		}
		msgs.Join(&rd.msgs)
	}
	clear(ranks) // the chunks go before the frames are built

	// The only cross-rank join.
	arrows := joinMessages(&msgs, rep)

	rep.EqualDrawables = countEqualDrawables(states, arrows, events, rep)

	// Time bounds.
	minT, maxT := bounds(states, arrows, events)
	f := &File{
		NumRanks:   c.numRanks,
		Start:      minT,
		End:        maxT,
		Categories: cats,
		Warnings:   rep.Warnings,
	}
	f.Root = buildFrames(minT, maxT, states, arrows, events, capacity, opts.workers())

	rep.States = len(states)
	rep.Arrows = len(arrows)
	rep.Events = len(events)
	return f, rep
}

// joinMessages makes the arrows: clog2.Messages pairs sends with
// receives FIFO per (src, dst, tag) in key order, so arrows and warnings
// come out deterministically, and mergeArrows puts the arrows in the
// order of their Start.
func joinMessages(msgs *clog2.Messages, rep *Report) []Arrow {
	var runs []arrowRun
	var n int
	var recvWarnings []string
	msgs.Match(func(k clog2.MsgKey, sends, recvs []clog2.MsgHalf) {
		m := min(len(sends), len(recvs))
		for i, s := range sends[:m] {
			if r := recvs[i]; s.Size != r.Size {
				rep.warnf("message %d->%d tag %d: send size %d != recv size %d", k.Src, k.Dst, k.Tag, s.Size, r.Size)
			}
		}
		if m > 0 {
			runs = append(runs, arrowRun{k, sends[:m], recvs[:m]})
			n += m
		}
		if extra := len(sends) - m; extra > 0 {
			rep.UnmatchedSends += extra
			rep.warnf("message %d->%d tag %d: %d send(s) without receive", k.Src, k.Dst, k.Tag, extra)
		}
		if extra := len(recvs) - m; extra > 0 {
			rep.UnmatchedRecvs += extra
			recvWarnings = append(recvWarnings, fmt.Sprintf("message %d->%d tag %d: %d receive(s) without send", k.Src, k.Dst, k.Tag, extra))
		}
	})
	rep.Warnings = append(rep.Warnings, recvWarnings...)
	return mergeArrows(runs, n)
}

// arrowRun is one message key's matched pairs, which Messages.Match hands
// over in time order: sends[i] went to recvs[i].
type arrowRun struct {
	k            clog2.MsgKey
	sends, recvs []clog2.MsgHalf
}

// mergeArrows makes the n arrows of runs, in the order of their Start: a
// k-way merge of the runs, each in that order already, that takes a tie
// from the earlier run and then from the earlier pair of the run. So it is
// the stable sort by Start of the runs' arrows laid end to end, in key
// order, and every arrow is written once, into an array of exactly n.
func mergeArrows(runs []arrowRun, n int) []Arrow {
	arrows := make([]Arrow, 0, n)
	// heap holds the runs that have arrows left, least head first, with
	// the time of each one's head.
	type head struct {
		t   float64
		run int
	}
	heap := make([]head, len(runs))
	for i := range heap {
		heap[i] = head{runs[i].sends[0].Time, i}
	}
	less := func(a, b head) bool { return a.t < b.t || a.t == b.t && a.run < b.run }
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(heap) {
				return
			}
			if c+1 < len(heap) && less(heap[c+1], heap[c]) {
				c++
			}
			if !less(heap[c], heap[i]) {
				return
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(heap) > 0 {
		r := &runs[heap[0].run]
		s, rv := r.sends[0], r.recvs[0]
		arrows = append(arrows, Arrow{
			SrcRank: int(r.k.Src), DstRank: int(r.k.Dst),
			Start: s.Time, End: rv.Time,
			Tag: int(r.k.Tag), Size: int(s.Size),
		})
		if r.sends, r.recvs = r.sends[1:], r.recvs[1:]; len(r.sends) > 0 {
			heap[0].t = r.sends[0].Time
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	return arrows
}

func bounds(states []State, arrows []Arrow, events []Event) (minT, maxT float64) {
	first := true
	upd := func(lo, hi float64) {
		if first {
			minT, maxT = lo, hi
			first = false
			return
		}
		if lo < minT {
			minT = lo
		}
		if hi > maxT {
			maxT = hi
		}
	}
	for _, s := range states {
		upd(s.Start, s.End)
	}
	for _, a := range arrows {
		lo, hi := a.Start, a.End
		if hi < lo {
			lo, hi = hi, lo
		}
		upd(lo, hi)
	}
	for _, e := range events {
		upd(e.Time, e.Time)
	}
	if first {
		return 0, 0
	}
	return minT, maxT
}

// countEqualDrawables reproduces the converter's "Equal Drawables" warning:
// it counts drawables beyond the first in any group sharing a category and
// identical start and end times. States and events collide only on the
// same timeline; arrows collide when the same endpoints get identical
// times (the collective fan-out case the paper hit).
//
// No table of every drawable is needed: the slices arrive ordered so that
// equal drawables share a run — states by (rank, end), because a rank's
// states are appended as they close; arrows by start; events by (rank,
// time) — and nearly every run is one drawable long.
func countEqualDrawables(states []State, arrows []Arrow, events []Event, rep *Report) int {
	var count, groups int
	type stateKey struct {
		cat   int
		start float64
	}
	countEqualRuns(states, &count, &groups,
		func(a, b *State) bool { return a.Rank == b.Rank && a.End == b.End },
		func(s *State) stateKey { return stateKey{s.Cat, s.Start} })
	type arrowKey struct {
		end      float64
		src, dst int
	}
	countEqualRuns(arrows, &count, &groups,
		func(a, b *Arrow) bool { return a.Start == b.Start },
		func(a *Arrow) arrowKey { return arrowKey{a.End, a.SrcRank, a.DstRank} })
	countEqualRuns(events, &count, &groups,
		func(a, b *Event) bool { return a.Rank == b.Rank && a.Time == b.Time },
		func(e *Event) int { return e.Cat })
	if count > 0 {
		rep.warnf("Equal Drawables: %d drawable(s) in %d group(s) share identical timestamps (limited clock resolution?)", count, groups)
	}
	return count
}

// countEqualRuns cuts xs into maximal runs of neighbours that sameRun
// accepts and, inside each run longer than one, groups by rest — the key
// fields sameRun did not compare.
func countEqualRuns[T any, K comparable](xs []T, count, groups *int, sameRun func(a, b *T) bool, rest func(*T) K) {
	var seen map[K]int
	for i := 0; i < len(xs); {
		j := i + 1
		for j < len(xs) && sameRun(&xs[i], &xs[j]) {
			j++
		}
		if j-i > 1 {
			if seen == nil {
				seen = map[K]int{}
			}
			clear(seen)
			for k := i; k < j; k++ {
				seen[rest(&xs[k])]++
			}
			for _, n := range seen {
				if n > 1 {
					*count += n - 1
					*groups++
				}
			}
		}
		i = j
	}
}
