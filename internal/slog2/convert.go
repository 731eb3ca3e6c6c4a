package slog2

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

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
	// Workers is the worker-pool size for the per-rank pairing phase and
	// for concurrent sibling-frame construction. 0 means
	// runtime.GOMAXPROCS(0). The output is byte-identical at every worker count:
	// drawables are ordered by (rank, time, sequence) before frame
	// insertion, so parallelism never changes the result.
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
	// OutOfRange counts records and message halves dropped because their
	// rank, or their peer's, lies outside [0, NumRanks).
	OutOfRange int
	Warnings   []string
}

func (r *Report) warnf(format string, args ...any) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

// timed is what the converter keeps of one bare or cargo event: its time,
// what clog2.Etypes.Classify made of its etype as it streamed in, and
// where its cargo text sits in the rank's arena — 24 bytes where a
// clog2.Record is 136.
type timed struct {
	t        float64
	id       int32
	cargoOff uint32
	kind     clog2.EtypeKind
	cargoLen uint8
}

// rankLog is one rank's events in file order (the per-rank sequence used
// as the sort tie-break) and, end to end, their cargo text.
type rankLog struct {
	recs  []timed
	cargo []byte
	// badPeers counts, by peer, the rank's message halves whose peer lies
	// outside [0, numRanks).
	badPeers map[int]int
}

// partition is the phase-1 product: definition records in file order,
// each rank's events and every message half. perRank is keyed, not
// indexed, by rank: a header may declare 2^20 ranks and log on two.
type partition struct {
	numRanks  int
	etypes    clog2.Etypes
	stateDefs []clog2.Record
	eventDefs []clog2.Record
	perRank   map[int]*rankLog
	msgs      clog2.Messages
	sends     int
	// dropped counts, by rank, the records whose rank lies outside
	// [0, numRanks): slog2.Read rejects a drawable on such a rank.
	dropped map[int]int
	// nonFinite counts, by rank, the records stamped NaN or ±Inf, which
	// the fold skips too.
	nonFinite map[int]int
}

func newPartition(numRanks int) *partition {
	return &partition{numRanks: numRanks, perRank: map[int]*rankLog{}}
}

func count(m *map[int]int, rank int32) {
	if *m == nil {
		*m = map[int]int{}
	}
	(*m)[int(rank)]++
}

// addBlock copies what the conversion needs out of b, whose records the
// caller is free to overwrite afterwards.
func (p *partition) addBlock(b *clog2.Block) error {
	var rl *rankLog // the log of rank cur; blocks rarely mix ranks
	cur := int32(-1)
	for i := range b.Records {
		rec := &b.Records[i]
		switch {
		case p.etypes.Define(rec):
			if rec.Type == clog2.RecStateDef {
				p.stateDefs = append(p.stateDefs, *rec)
			} else {
				p.eventDefs = append(p.eventDefs, *rec)
			}
			continue
		case rec.Type == clog2.RecConstDef || rec.Type == clog2.RecTimeShift || rec.Type == clog2.RecSrcLoc:
			continue
		case rec.Rank < 0 || int(rec.Rank) >= p.numRanks:
			count(&p.dropped, rec.Rank)
			continue
		case math.IsNaN(rec.Time) || math.IsInf(rec.Time, 0):
			count(&p.nonFinite, rec.Rank)
			continue
		}
		if rl == nil || rec.Rank != cur {
			cur = rec.Rank
			if rl = p.perRank[int(cur)]; rl == nil {
				rl = &rankLog{}
				p.perRank[int(cur)] = rl
			}
			// At most one doubling a run (Each hands a long block over
			// in runs) instead of append's 1.25x steps, which re-copy a
			// long rank five times over.
			if need := len(b.Records) - i; cap(rl.recs)-len(rl.recs) < need {
				rl.recs = slices.Grow(rl.recs, max(need, len(rl.recs)))
			}
		}
		switch {
		case rec.Type == clog2.RecMsgEvt && (rec.Aux1 < 0 || int(rec.Aux1) >= p.numRanks):
			count(&rl.badPeers, rec.Aux1)
		case rec.Type == clog2.RecMsgEvt:
			if rec.Dir == clog2.DirSend {
				p.sends++
			}
			p.msgs.Add(rec.Rank, rec.Aux1, rec.Aux2, rec.Dir, clog2.MsgHalf{Time: rec.Time, Size: rec.Aux3})
		case rec.Type == clog2.RecBareEvt || rec.Type == clog2.RecCargoEvt:
			if uint64(len(rl.cargo))+uint64(rec.CargoLen) > math.MaxUint32 {
				return fmt.Errorf("slog2: rank %d logs more than 4 GiB of cargo text", cur)
			}
			tr := timed{t: rec.Time, cargoOff: uint32(len(rl.cargo)), cargoLen: rec.CargoLen}
			tr.kind, tr.id = p.etypes.Classify(rec.ID)
			rl.recs = append(rl.recs, tr)
			rl.cargo = append(rl.cargo, rec.CargoBytes()...)
		}
	}
	return nil
}

// Convert builds an SLOG-2 file from a parsed CLOG-2 log.
func Convert(in *clog2.File, opts ConvertOptions) (*File, *Report, error) {
	p := newPartition(in.NumRanks)
	for i := range in.Blocks {
		if err := p.addBlock(&in.Blocks[i]); err != nil {
			return nil, nil, err
		}
	}
	return convertPartitioned(p, opts)
}

// ConvertReader streams a CLOG-2 file from r straight into the conversion,
// one run of records at a time through Each's one buffer — the low-memory
// path used by vis.Convert and the command-line tools.
func ConvertReader(r io.Reader, opts ConvertOptions) (*File, *Report, error) {
	br, err := clog2.NewBlockReader(r)
	if err != nil {
		return nil, nil, err
	}
	p := newPartition(br.NumRanks())
	if err := br.Each(func(b clog2.Block) error { return p.addBlock(&b) }); err != nil {
		return nil, nil, err
	}
	return convertPartitioned(p, opts)
}

// rankResult is one rank's phase-2 output: paired states, events and
// diagnostics, all in deterministic (time, sequence) order.
type rankResult struct {
	states   []State
	events   []Event
	nesting  int
	badPeers int // message halves dropped for a peer outside [0, numRanks)
	warnings []string
}

func (rr *rankResult) warnf(format string, args ...any) {
	rr.warnings = append(rr.warnings, fmt.Sprintf(format, args...))
}

// byTime orders records by time alone; under a stable sort, ties keep
// their original sequence.
func byTime(a, b timed) int { return cmpLess(a.t, b.t) }

// orderByTime puts one rank's records in (time, original sequence) order:
// one pass when they already are, as in every merged log, else a stable
// sort by time.
func orderByTime(recs []timed) {
	if !slices.IsSortedFunc(recs, byTime) {
		slices.SortStableFunc(recs, byTime)
	}
}

// processRank runs the per-rank pairing phase: put the rank's events in
// (time, original sequence) order, pair starts and ends on a clog2.Stack
// into states, and turn solo events into events. stateCat/eventCat are
// read-only shared tables, so many processRank calls may run concurrently.
func processRank(rank, numRanks int, rl *rankLog, stateCat, eventCat map[int32]int) *rankResult {
	// Ties on time resolve to original record sequence, so a state-end and
	// the next state-start logged at an identical (coarse-resolution)
	// timestamp can never reorder and desynchronize the pairing stack. A
	// merged log is already in that order, rank by rank.
	recs := rl.recs
	orderByTime(recs)
	// Every cargo of the rank is a substring of this one string.
	text := string(rl.cargo)
	cargo := func(i int) string { return text[recs[i].cargoOff : recs[i].cargoOff+uint32(recs[i].cargoLen)] }

	// Size the outputs from what the records can at most produce.
	var ends, solos int
	for i := range recs {
		switch recs[i].kind {
		case clog2.EtypeEnd:
			ends++
		case clog2.EtypeSolo:
			solos++
		}
	}
	rr := &rankResult{states: make([]State, 0, ends), events: make([]Event, 0, solos)}
	var stack clog2.Stack
	for i := range recs {
		rec := &recs[i]
		switch rec.kind {
		case clog2.EtypeStart:
			stack.Push(rec.id, rec.t, i)
		case clog2.EtypeEnd:
			top, _, ok := stack.Close(rec.id, rec.t)
			if !ok {
				rr.nesting++
				rr.warnf("rank %d: end of state %d at %v with no open state", rank, rec.id, rec.t)
				continue
			}
			if top.ID != rec.id {
				rr.nesting++
				rr.warnf("rank %d: state %d closed while %d open at %v", rank, rec.id, top.ID, rec.t)
			}
			end := cargo(i)
			if end == mpe.SyntheticEndCargo {
				// The logger closed this state for us at wrap-up; it is
				// still a nesting error in the program being debugged.
				rr.nesting++
				rr.warnf("rank %d: state %d left open, closed synthetically at %v", rank, rec.id, rec.t)
			}
			cat, ok := stateCat[rec.id]
			if !ok {
				rr.warnf("rank %d: state %d has no definition", rank, rec.id)
				continue
			}
			rr.states = append(rr.states, State{
				Rank: rank, Cat: cat,
				Start: top.Start, End: rec.t,
				StartCargo: cargo(top.Ref), EndCargo: end,
			})
		case clog2.EtypeSolo:
			cat, ok := eventCat[rec.id]
			if !ok {
				rr.warnf("rank %d: event %d has no definition", rank, rec.id-clog2.SoloBase)
				continue
			}
			rr.events = append(rr.events, Event{Rank: rank, Cat: cat, Time: rec.t, Cargo: cargo(i)})
		}
	}
	for _, o := range stack.Open() {
		rr.nesting++
		rr.warnf("rank %d: state %d opened at %v never closed", rank, o.ID, o.Start)
	}
	for _, peer := range sortedKeys(rl.badPeers) {
		rr.badPeers += rl.badPeers[peer]
		rr.warnf("rank %d: %d message half(s) dropped, peer rank %d outside [0,%d)", rank, rl.badPeers[peer], peer, numRanks)
	}
	return rr
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// convertPartitioned runs phases 2..4: per-rank pairing on a worker pool,
// the cross-rank arrow join, and the frame-tree build. Every merge step
// iterates ranks and message keys in sorted order, so the output — down to
// warning order — is identical at any worker count.
func convertPartitioned(p *partition, opts ConvertOptions) (*File, *Report, error) {
	capacity := opts.FrameCapacity
	if capacity <= 0 {
		capacity = DefaultFrameCapacity
	}
	workers := opts.workers()
	rep := &Report{}

	// Category table: states first, then events, in file order; a state
	// is keyed by its ID and an event by its etype.
	var cats []Category
	stateCat := map[int32]int{}
	eventCat := map[int32]int{}
	for _, d := range p.stateDefs {
		stateCat[d.ID] = len(cats)
		cats = append(cats, Category{Name: d.Name, Color: d.Color, Kind: KindState})
	}
	for _, d := range p.eventDefs {
		eventCat[d.ID] = len(cats)
		cats = append(cats, Category{Name: d.Name, Color: d.Color, Kind: KindEvent})
	}

	for _, rank := range sortedKeys(p.dropped) {
		rep.OutOfRange += p.dropped[rank]
		rep.warnf("rank %d: %d record(s) dropped, rank outside [0,%d)", rank, p.dropped[rank], p.numRanks)
	}
	for _, rank := range sortedKeys(p.nonFinite) {
		rep.warnf("rank %d: %d record(s) dropped, timestamp not finite", rank, p.nonFinite[rank])
	}

	// Phase 2: per-rank pairing, fanned out over the worker pool. Ranks
	// are processed in any order but collected in ascending rank order.
	ranks := sortedKeys(p.perRank)
	results := make([]*rankResult, len(ranks))
	if w := len(ranks); workers > w {
		workers = w
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(ranks) {
					return
				}
				rank := ranks[i]
				results[i] = processRank(rank, p.numRanks, p.perRank[rank], stateCat, eventCat)
			}
		}()
	}
	wg.Wait()

	// Merge rank results in rank order. Per-rank slices are already in
	// (time, sequence) order, so concatenation yields the global
	// (rank, time, sequence) order required for deterministic frames.
	var nStates, nEvents int
	for _, rr := range results {
		nStates += len(rr.states)
		nEvents += len(rr.events)
	}
	states := make([]State, 0, nStates)
	events := make([]Event, 0, nEvents)
	for _, rr := range results {
		states = append(states, rr.states...)
		events = append(events, rr.events...)
		rep.NestingErrors += rr.nesting
		rep.OutOfRange += rr.badPeers
		rep.Warnings = append(rep.Warnings, rr.warnings...)
	}

	// Phase 3 — the only cross-rank join: clog2.Messages pairs sends with
	// receives FIFO per (src, dst, tag) in key order, so arrows and
	// warnings come out deterministically.
	arrows := make([]Arrow, 0, p.sends)
	var recvWarnings []string
	p.msgs.Match(func(k clog2.MsgKey, sends, recvs []clog2.MsgHalf) {
		n := min(len(sends), len(recvs))
		for i, s := range sends[:n] {
			if r := recvs[i]; s.Size != r.Size {
				rep.warnf("message %d->%d tag %d: send size %d != recv size %d", k.Src, k.Dst, k.Tag, s.Size, r.Size)
			}
			arrows = append(arrows, Arrow{
				SrcRank: int(k.Src), DstRank: int(k.Dst),
				Start: s.Time, End: recvs[i].Time,
				Tag: int(k.Tag), Size: int(s.Size),
			})
		}
		if extra := len(sends) - n; extra > 0 {
			rep.UnmatchedSends += extra
			rep.warnf("message %d->%d tag %d: %d send(s) without receive", k.Src, k.Dst, k.Tag, extra)
		}
		if extra := len(recvs) - n; extra > 0 {
			rep.UnmatchedRecvs += extra
			recvWarnings = append(recvWarnings, fmt.Sprintf("message %d->%d tag %d: %d receive(s) without send", k.Src, k.Dst, k.Tag, extra))
		}
	})
	rep.Warnings = append(rep.Warnings, recvWarnings...)
	slices.SortStableFunc(arrows, func(a, b Arrow) int { return cmpLess(a.Start, b.Start) })

	rep.EqualDrawables = countEqualDrawables(states, arrows, events, rep)

	// Time bounds.
	minT, maxT := bounds(states, arrows, events)
	f := &File{
		NumRanks:   p.numRanks,
		Start:      minT,
		End:        maxT,
		Categories: cats,
		Warnings:   rep.Warnings,
	}
	fb := newFrameBuilder(capacity, workers)
	f.Root = fb.build(minT, maxT, withScratch(states), withScratch(arrows), withScratch(events), 0)
	fb.wait()

	rep.States = len(states)
	rep.Arrows = len(arrows)
	rep.Events = len(events)
	return f, rep, nil
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

// frameBuilder constructs the bounding-box tree, building sibling subtrees
// concurrently when spare worker tokens are available. The tree's shape
// and contents depend only on its inputs, never on scheduling.
type frameBuilder struct {
	capacity int
	sem      chan struct{} // spare-worker tokens (nil/empty = sequential)
	wg       sync.WaitGroup
}

func newFrameBuilder(capacity, workers int) *frameBuilder {
	fb := &frameBuilder{capacity: capacity}
	if workers > 1 {
		fb.sem = make(chan struct{}, workers-1)
	}
	return fb
}

func (fb *frameBuilder) wait() { fb.wg.Wait() }

// span is one kind's drawables on their way down the tree: in holds them
// in (rank, time, sequence) order, tmp is scratch of the same length. Each
// level partitions in into tmp and hands its children the two swapped, so
// the whole tree is carved out of two arrays a kind instead of a fresh
// slice per frame; the tree's frames alias them, capped at their own end.
type span[T any] struct{ in, tmp []T }

func withScratch[T any](in []T) span[T] { return span[T]{in: in, tmp: make([]T, len(in))} }

// Where a drawable goes at a split point.
const (
	goLeft = iota
	goRight
	stayHere
)

// sideOf places the interval [lo, hi]: fully inside a half it goes down,
// spanning mid it stays.
func sideOf(lo, hi, mid float64) int {
	switch {
	case hi <= mid:
		return goLeft
	case lo >= mid:
		return goRight
	}
	return stayHere
}

// split stably partitions s.in into s.tmp as [left | right | here].
func split[T any](s span[T], side func(*T) int) (left, right span[T], here []T) {
	var n [3]int
	for i := range s.in {
		n[side(&s.in[i])]++
	}
	at := [3]int{0, n[goLeft], n[goLeft] + n[goRight]}
	for i := range s.in {
		k := side(&s.in[i])
		s.tmp[at[k]] = s.in[i]
		at[k]++
	}
	l, r := n[goLeft], n[goLeft]+n[goRight]
	return span[T]{s.tmp[:l:l], s.in[:l:l]}, span[T]{s.tmp[l:r:r], s.in[l:r:r]}, s.tmp[r:]
}

// build constructs the subtree for [start, end]. Drawables fully inside a
// half go down; spanners stay at this node.
func (fb *frameBuilder) build(start, end float64, states span[State], arrows span[Arrow], events span[Event], depth int) *Frame {
	fr := &Frame{Start: start, End: end}
	total := len(states.in) + len(arrows.in) + len(events.in)
	if total <= fb.capacity || depth >= MaxTreeDepth || end <= start {
		fr.States, fr.Arrows, fr.Events = states.in, arrows.in, events.in
		return fr
	}
	mid := (start + end) / 2
	lStates, rStates, here := split(states, func(s *State) int { return sideOf(s.Start, s.End, mid) })
	lArrows, rArrows, hereA := split(arrows, func(a *Arrow) int {
		if a.End < a.Start {
			return sideOf(a.End, a.Start, mid)
		}
		return sideOf(a.Start, a.End, mid)
	})
	lEvents, rEvents, _ := split(events, func(e *Event) int {
		if e.Time < mid {
			return goLeft
		}
		return goRight
	})
	fr.States, fr.Arrows = here, hereA
	left := len(lStates.in)+len(lArrows.in)+len(lEvents.in) > 0
	right := len(rStates.in)+len(rArrows.in)+len(rEvents.in) > 0
	buildLeft := func() { fr.Left = fb.build(start, mid, lStates, lArrows, lEvents, depth+1) }
	if left && right && fb.sem != nil {
		// Both siblings have work: hand the left one to a spare worker if
		// a token is free, otherwise build inline.
		select {
		case fb.sem <- struct{}{}:
			fb.wg.Add(1)
			go func() {
				defer fb.wg.Done()
				defer func() { <-fb.sem }()
				buildLeft()
			}()
		default:
			buildLeft()
		}
	} else if left {
		buildLeft()
	}
	if right {
		fr.Right = fb.build(mid, end, rStates, rArrows, rEvents, depth+1)
	}
	return fr
}
