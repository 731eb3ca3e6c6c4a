package slog2

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
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

// maxChunk is the most records a chunk of a rank's log holds: chunks
// double up to it, so a long rank is kept in pieces of 384 KiB that are
// never copied to grow, and a short one in one small piece.
const maxChunk = 16 << 10

// textPiece is the most cargo text one piece of a rank's text holds, so
// that a long rank's text is never copied to grow either; a cargo never
// straddles two pieces.
const textPiece = 64 << 10

// rankLog is one rank's events in file order (the per-rank sequence used
// as the sort tie-break), in chunks, and their cargo text, in pieces.
type rankLog struct {
	chunks [][]timed
	n      int // records in all chunks
	// ends and solos count the state ends and solo events among them:
	// what the rank's pairing can at most produce.
	ends, solos int
	// texts are the full pieces of the rank's cargo text and text the one
	// being filled. A cargoOff counts from the start of texts[0], so its
	// piece is cargoOff/textPiece.
	texts []string
	text  strings.Builder
	// badPeers counts, by peer, the rank's message halves whose peer lies
	// outside [0, numRanks).
	badPeers map[int]int
}

// add appends tr with its cargo, starting a chunk when the last one is
// full and a piece of text when the cargo does not fit the last one. It
// adds nothing and reports false once the rank's text would pass what a
// cargoOff can address.
func (rl *rankLog) add(tr timed, cargo []byte) bool {
	if rl.text.Len()+len(cargo) > textPiece {
		rl.texts = append(rl.texts, rl.text.String())
		rl.text = strings.Builder{}
	}
	at := len(rl.texts)*textPiece + rl.text.Len()
	if uint64(at)+uint64(len(cargo)) > math.MaxUint32 {
		return false
	}
	if rl.text.Cap()-rl.text.Len() < len(cargo) {
		// The first piece doubles from 1 KiB, where appending would grow
		// it by a quarter; every later one is whole from the start.
		grow := max(1024-rl.text.Cap(), len(cargo))
		if len(rl.texts) > 0 {
			grow = textPiece
		}
		rl.text.Grow(grow)
	}
	rl.text.Write(cargo)
	tr.cargoOff, tr.cargoLen = uint32(at), uint8(len(cargo))

	last := len(rl.chunks) - 1
	if last < 0 || len(rl.chunks[last]) == cap(rl.chunks[last]) {
		rl.chunks = append(rl.chunks, make([]timed, 0, min(max(rl.n, 256), maxChunk)))
		last++
	}
	rl.chunks[last] = append(rl.chunks[last], tr)
	rl.n++
	switch tr.kind {
	case clog2.EtypeEnd:
		rl.ends++
	case clog2.EtypeSolo:
		rl.solos++
	}
	return true
}

// cargoOf returns the cargo text a start or an end carries, given as
// cargoOff<<8 | cargoLen. An empty cargo may be addressed just past a full
// piece, where no piece begins until a later cargo needs one.
func (rl *rankLog) cargoOf(ref uint64) string {
	off, n := ref>>8, ref&0xff
	if n == 0 {
		return ""
	}
	if off/textPiece == uint64(len(rl.texts)) {
		return rl.text.String()[off%textPiece:][:n]
	}
	return rl.texts[off/textPiece][off%textPiece:][:n]
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
		}
		switch {
		case rec.Type == clog2.RecMsgEvt && (rec.Aux1 < 0 || int(rec.Aux1) >= p.numRanks):
			count(&rl.badPeers, rec.Aux1)
		case rec.Type == clog2.RecMsgEvt:
			p.msgs.Add(rec.Rank, rec.Aux1, rec.Aux2, rec.Dir, clog2.MsgHalf{Time: rec.Time, Size: rec.Aux3})
		case rec.Type == clog2.RecBareEvt || rec.Type == clog2.RecCargoEvt:
			tr := timed{t: rec.Time}
			tr.kind, tr.id = p.etypes.Classify(rec.ID)
			if !rl.add(tr, rec.CargoBytes()) {
				return fmt.Errorf("slog2: rank %d logs more than 4 GiB of cargo text", cur)
			}
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

// rankResult is what one rank's pairing reports beside the drawables it
// writes: how many of each, and its diagnostics in (time, sequence) order.
type rankResult struct {
	states, events int
	nesting        int
	badPeers       int // message halves dropped for a peer outside [0, numRanks)
	warnings       []string
}

func (rr *rankResult) warnf(format string, args ...any) {
	rr.warnings = append(rr.warnings, fmt.Sprintf(format, args...))
}

// byTime orders records by time alone; under a stable sort, ties keep
// their original sequence.
func byTime(a, b timed) int { return cmpLess(a.t, b.t) }

// orderByTime puts one rank's records in (time, original sequence) order:
// one pass over the chunks when they already are, as in every merged log,
// else a stable sort by time of the chunks laid end to end, returned as
// one chunk.
func orderByTime(chunks [][]timed) [][]timed {
	prev := math.Inf(-1)
	for _, c := range chunks {
		for i := range c {
			if c[i].t < prev {
				n := 0
				for _, c := range chunks {
					n += len(c)
				}
				all := make([]timed, 0, n)
				for _, c := range chunks {
					all = append(all, c...)
				}
				slices.SortStableFunc(all, byTime)
				return [][]timed{all}
			}
			prev = c[i].t
		}
	}
	return chunks
}

// pairRank runs the per-rank pairing phase: put the rank's events in
// (time, original sequence) order, pair starts and ends on a clog2.Stack
// into states, and turn solo events into events. They are written to
// states and events, which have room for the rank's every end and solo
// event. stateCat/eventCat are read-only shared tables, so many pairRank
// calls may run concurrently on disjoint states and events.
func pairRank(rank, numRanks int, rl *rankLog, stateCat, eventCat map[int32]int, states []State, events []Event) *rankResult {
	// Ties on time resolve to original record sequence, so a state-end and
	// the next state-start logged at an identical (coarse-resolution)
	// timestamp can never reorder and desynchronize the pairing stack. A
	// merged log is already in that order, rank by rank.
	chunks := orderByTime(rl.chunks)
	// Every cargo of the rank is a substring of a piece of its text; a
	// start's Ref on the stack is where its cargo lies.
	cargo := rl.cargoOf

	rr := &rankResult{}
	var stack clog2.Stack
	for _, c := range chunks {
		for i := range c {
			rec := &c[i]
			ref := uint64(rec.cargoOff)<<8 | uint64(rec.cargoLen)
			switch rec.kind {
			case clog2.EtypeStart:
				stack.Push(rec.id, rec.t, ref)
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
				end := cargo(ref)
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
				states[rr.states] = State{
					Rank: rank, Cat: cat,
					Start: top.Start, End: rec.t,
					StartCargo: cargo(top.Ref), EndCargo: end,
				}
				rr.states++
			case clog2.EtypeSolo:
				cat, ok := eventCat[rec.id]
				if !ok {
					rr.warnf("rank %d: event %d has no definition", rank, rec.id-clog2.SoloBase)
					continue
				}
				events[rr.events] = Event{Rank: rank, Cat: cat, Time: rec.t, Cargo: cargo(ref)}
				rr.events++
			}
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
// warning order — is identical at any worker count. Each kind's drawables
// live in one array from the phase that makes them to the frames that
// hold them (DESIGN §4).
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

	// Phase 2: per-rank pairing, fanned out over the worker pool. Rank i
	// writes its states from stateAt[i] and its events from eventAt[i]
	// on: stretches of one array a kind, in ascending rank order, as long
	// as the rank's ends and solo events. That is what it writes unless an
	// end closes nothing or names an undefined state; the ranks behind
	// such a gap then move down over it, so that states and events end up
	// in global (rank, time, sequence) order, the order frames need.
	ranks := sortedKeys(p.perRank)
	stateAt, eventAt := make([]int, len(ranks)+1), make([]int, len(ranks)+1)
	for i, rank := range ranks {
		stateAt[i+1] = stateAt[i] + p.perRank[rank].ends
		eventAt[i+1] = eventAt[i] + p.perRank[rank].solos
	}
	states := make([]State, stateAt[len(ranks)])
	events := make([]Event, eventAt[len(ranks)])
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
				results[i] = pairRank(rank, p.numRanks, p.perRank[rank], stateCat, eventCat,
					states[stateAt[i]:stateAt[i+1]], events[eventAt[i]:eventAt[i+1]])
			}
		}()
	}
	wg.Wait()
	var nStates, nEvents int
	for i, rr := range results {
		if nStates != stateAt[i] {
			copy(states[nStates:], states[stateAt[i]:stateAt[i]+rr.states])
		}
		if nEvents != eventAt[i] {
			copy(events[nEvents:], events[eventAt[i]:eventAt[i]+rr.events])
		}
		nStates += rr.states
		nEvents += rr.events
		rep.NestingErrors += rr.nesting
		rep.OutOfRange += rr.badPeers
		rep.Warnings = append(rep.Warnings, rr.warnings...)
	}
	clear(states[nStates:])
	clear(events[nEvents:])
	states, events = states[:nStates:nStates], events[:nEvents:nEvents]

	// Phase 3 — the only cross-rank join.
	arrows := joinMessages(&p.msgs, rep)

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
	f.Root = buildFrames(minT, maxT, states, arrows, events, capacity, workers)

	rep.States = len(states)
	rep.Arrows = len(arrows)
	rep.Events = len(events)
	return f, rep, nil
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
