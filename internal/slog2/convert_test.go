package slog2

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/clog2"
	"repro/internal/mpe"
)

// randomCLOG builds a messy multi-rank log: states, events, fan-out
// messages, duplicate timestamps, and a few nesting errors — everything
// the converter has diagnostics for.
func randomCLOG(seed int64, nranks int) *clogBuilder {
	rng := rand.New(rand.NewSource(seed))
	b := newCLOG(nranks)
	b.defState(1, "PI_Write", "green")
	b.defState(2, "PI_Read", "red")
	b.defState(3, "Compute", "gray")
	b.defEvent(1, "MsgArrival", "yellow")
	n := 200 + rng.Intn(400)
	for i := 0; i < n; i++ {
		rank := int32(rng.Intn(nranks))
		t0 := float64(rng.Intn(500)) / 50 // coarse clock: lots of ties
		b.state(rank, int32(rng.Intn(3)+1), t0, t0+float64(rng.Intn(10))/50, "cargo")
		if rng.Intn(4) == 0 {
			b.event(rank, 1, t0, "ev")
		}
		if nranks > 1 && rng.Intn(3) == 0 {
			src := rank
			dst := int32(rng.Intn(nranks))
			if dst == src {
				dst = (dst + 1) % int32(nranks)
			}
			tag := int32(rng.Intn(4))
			b.send(src, dst, tag, t0, 8)
			if rng.Intn(5) != 0 { // some sends stay unmatched
				b.recv(dst, src, tag, t0+0.01, 8)
			}
		}
	}
	// A dangling end and an unclosed start exercise the error paths.
	b.blocks[0] = append(b.blocks[0],
		clog2.Record{Type: clog2.RecCargoEvt, Time: 99, Rank: 0, ID: 3},
		clog2.Record{Type: clog2.RecCargoEvt, Time: 99.5, Rank: 0, ID: 2},
	)
	return b
}

func encodeSLOG(t *testing.T, f *File) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// depthOf is the number of levels of the tree under fr.
func depthOf(fr *Frame) int {
	if fr == nil {
		return 0
	}
	return 1 + max(depthOf(fr.Left), depthOf(fr.Right))
}

// Parallel conversion output is byte-identical to sequential output,
// including warning order, at every worker count and as a stream: on
// messy logs, and on one whose frame tree is deep enough that the builder
// hands subtrees below its first block of levels to spare workers.
func TestConvertParallelByteIdentical(t *testing.T) {
	type tc struct {
		log  []byte
		opts ConvertOptions
	}
	var cases []tc
	for seed := int64(0); seed < 6; seed++ {
		cases = append(cases, tc{randomCLOG(seed, 1+int(seed)).log(t), ConvertOptions{}})
	}
	cases = append(cases, tc{randomCLOG(99, 6).log(t), ConvertOptions{FrameCapacity: 2}})
	for i, c := range cases {
		c.opts.Workers = 1
		ref, refRep, err := convert(c.log, c.opts)
		if err != nil {
			t.Fatalf("log %d: %v", i, err)
		}
		if i == len(cases)-1 && depthOf(ref.Root) < 2*blockDepth {
			t.Fatalf("the deep log's tree is %d levels deep, want %d or more", depthOf(ref.Root), 2*blockDepth)
		}
		refBytes := encodeSLOG(t, ref)
		for workers := 0; workers <= 8; workers++ {
			c.opts.Workers = workers
			var got *File
			var gotRep *Report
			if workers == 0 { // as a stream, in one pass
				got, gotRep, err = ConvertReader(bytes.NewReader(c.log), c.opts)
			} else {
				got, gotRep, err = convert(c.log, c.opts)
			}
			if err != nil {
				t.Fatalf("log %d workers %d: %v", i, workers, err)
			}
			if gotRep.States != refRep.States || gotRep.Arrows != refRep.Arrows ||
				gotRep.Events != refRep.Events || gotRep.NestingErrors != refRep.NestingErrors ||
				gotRep.UnmatchedSends != refRep.UnmatchedSends || gotRep.UnmatchedRecvs != refRep.UnmatchedRecvs ||
				gotRep.EqualDrawables != refRep.EqualDrawables {
				t.Fatalf("log %d workers %d: report %+v != %+v", i, workers, gotRep, refRep)
			}
			if !slices.Equal(gotRep.Warnings, refRep.Warnings) {
				t.Fatalf("log %d workers %d: warnings %q != %q", i, workers, gotRep.Warnings, refRep.Warnings)
			}
			if !bytes.Equal(encodeSLOG(t, got), refBytes) {
				t.Fatalf("log %d workers %d: serialized output differs from sequential", i, workers)
			}
			if err := got.CheckInvariants(); err != nil {
				t.Fatalf("log %d workers %d: %v", i, workers, err)
			}
		}
	}
}

// refTree is the frame tree as its definition reads, one level at a
// time: a node over [start, end] at depth keeps every drawable it is
// handed when they are at most capacity, it is MaxTreeDepth deep or it
// has no width; otherwise it keeps the states and arrows that span its
// midpoint and hands every other drawable, in the order it came, to the
// half it lies in: hi <= mid left, lo >= mid right, an event right from
// the midpoint on.
func refTree(start, end float64, states []State, arrows []Arrow, events []Event, capacity, depth int) *Frame {
	fr := &Frame{Start: start, End: end}
	if len(states)+len(arrows)+len(events) <= capacity || depth >= MaxTreeDepth || end <= start {
		fr.States, fr.Arrows, fr.Events = states, arrows, events
		return fr
	}
	mid := (start + end) / 2
	var ls, rs []State
	for _, s := range states {
		switch {
		case s.End <= mid:
			ls = append(ls, s)
		case s.Start >= mid:
			rs = append(rs, s)
		default:
			fr.States = append(fr.States, s)
		}
	}
	var la, ra []Arrow
	for _, a := range arrows {
		switch lo, hi := min(a.Start, a.End), max(a.Start, a.End); {
		case hi <= mid:
			la = append(la, a)
		case lo >= mid:
			ra = append(ra, a)
		default:
			fr.Arrows = append(fr.Arrows, a)
		}
	}
	var le, re []Event
	for _, e := range events {
		if e.Time < mid {
			le = append(le, e)
		} else {
			re = append(re, e)
		}
	}
	if len(ls)+len(la)+len(le) > 0 {
		fr.Left = refTree(start, mid, ls, la, le, capacity, depth+1)
	}
	if len(rs)+len(ra)+len(re) > 0 {
		fr.Right = refTree(mid, end, rs, ra, re, capacity, depth+1)
	}
	return fr
}

// sameTree reports where the trees under a and b first differ, "" if
// nowhere.
func sameTree(a, b *Frame, path string) string {
	switch {
	case a == nil || b == nil:
		if a != b {
			return path + ": one tree has a frame the other lacks"
		}
		return ""
	case a.Start != b.Start || a.End != b.End:
		return fmt.Sprintf("%s: frame [%v,%v] against [%v,%v]", path, a.Start, a.End, b.Start, b.End)
	case !slices.Equal(a.States, b.States) || !slices.Equal(a.Arrows, b.Arrows) || !slices.Equal(a.Events, b.Events):
		return fmt.Sprintf("%s: %d/%d/%d drawables against %d/%d/%d", path,
			len(a.States), len(a.Arrows), len(a.Events), len(b.States), len(b.Arrows), len(b.Events))
	}
	if d := sameTree(a.Left, b.Left, path+"L"); d != "" {
		return d
	}
	return sameTree(a.Right, b.Right, path+"R")
}

// The block builder decides blockDepth levels at a time from each
// drawable's route; its tree must be refTree's, drawable for drawable and
// in the same order, at every worker count. The times sit on a grid of
// 1/64 so that many drawables start, end or happen exactly at a split
// point, and some are stacked on one instant; a capacity of 1 to 3 drives
// the tree down to MaxTreeDepth, through three blocks.
func TestConvertFrameTreeMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	at := func() float64 {
		if rng.Intn(4) == 0 {
			return rng.Float64()
		}
		return float64(rng.Intn(65)) / 64
	}
	deepest := 0
	for trial := 0; trial < 60; trial++ {
		var states []State
		var arrows []Arrow
		var events []Event
		for i := rng.Intn(2000); i > 0; i-- {
			switch t0, t1 := at(), at(); rng.Intn(3) {
			case 0:
				states = append(states, State{Rank: i, Start: min(t0, t1), End: max(t0, t1)})
			case 1:
				arrows = append(arrows, Arrow{SrcRank: i, Start: t0, End: t1})
			default:
				events = append(events, Event{Rank: i, Time: t0})
			}
		}
		if trial%10 == 9 {
			for i := range states {
				states[i].Start, states[i].End = 0.5, 0.5
			}
		}
		minT, maxT := bounds(states, arrows, events)
		capacity := 1 + trial%3
		if trial%4 == 3 {
			capacity = DefaultFrameCapacity
		}
		want := refTree(minT, maxT, slices.Clone(states), slices.Clone(arrows), slices.Clone(events), capacity, 0)
		deepest = max(deepest, depthOf(want))
		for _, workers := range []int{1, 3} {
			got := buildFrames(minT, maxT, slices.Clone(states), slices.Clone(arrows), slices.Clone(events), capacity, workers)
			if d := sameTree(got, want, "root "); d != "" {
				t.Fatalf("trial %d (capacity %d, workers %d): %s", trial, capacity, workers, d)
			}
		}
	}
	if deepest <= 2*blockDepth {
		t.Fatalf("the deepest tree has %d levels, want more than %d", deepest, 2*blockDepth)
	}
}

// The arrows come out of the k-way merge of the keys' runs in the order a
// stable sort by Start gives the runs laid end to end in key order, with
// their warnings: on random message queues with ties on Start across
// keys, halves added in time order (a rank's file order, clog2.Block),
// keys that have only sends or only receives, and sizes that disagree.
func TestConvertArrowMergeEqualsStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		var a, b clog2.Messages
		add := func(rank, peer, tag int32, dir uint8, h clog2.MsgHalf) {
			a.Add(rank, peer, tag, dir, h)
			b.Add(rank, peer, tag, dir, h)
		}
		keys := 1 + rng.Intn(12)
		now := 0.0
		for i := rng.Intn(300); i > 0; i-- {
			k := int32(rng.Intn(keys))
			src, dst, tag := k%3, (k+1)%3, k/3
			now += float64(rng.Intn(3)) / 4 // a third of the halves tie with the one before
			h := clog2.MsgHalf{Time: now, Size: int32(rng.Intn(2) * 8)}
			switch {
			case k%5 == 1: // only sends
				add(src, dst, tag, clog2.DirSend, h)
			case k%5 == 2: // only receives
				add(dst, src, tag, clog2.DirRecv, h)
			case rng.Intn(2) == 0:
				add(src, dst, tag, clog2.DirSend, h)
			default:
				add(dst, src, tag, clog2.DirRecv, h)
			}
		}
		var wantRep Report
		var want []Arrow
		var recvWarnings []string
		b.Match(func(k clog2.MsgKey, sends, recvs []clog2.MsgHalf) {
			n := min(len(sends), len(recvs))
			for i := range n {
				if sends[i].Size != recvs[i].Size {
					wantRep.warnf("message %d->%d tag %d: send size %d != recv size %d", k.Src, k.Dst, k.Tag, sends[i].Size, recvs[i].Size)
				}
				want = append(want, Arrow{SrcRank: int(k.Src), DstRank: int(k.Dst), Start: sends[i].Time, End: recvs[i].Time, Tag: int(k.Tag), Size: int(sends[i].Size)})
			}
			if len(sends) > n {
				wantRep.UnmatchedSends += len(sends) - n
				wantRep.warnf("message %d->%d tag %d: %d send(s) without receive", k.Src, k.Dst, k.Tag, len(sends)-n)
			}
			if len(recvs) > n {
				wantRep.UnmatchedRecvs += len(recvs) - n
				recvWarnings = append(recvWarnings, fmt.Sprintf("message %d->%d tag %d: %d receive(s) without send", k.Src, k.Dst, k.Tag, len(recvs)-n))
			}
		})
		wantRep.Warnings = append(wantRep.Warnings, recvWarnings...)
		slices.SortStableFunc(want, func(x, y Arrow) int { return cmpLess(x.Start, y.Start) })

		var rep Report
		got := joinMessages(&a, &rep)
		if !slices.Equal(got, want) || len(got) != cap(got) {
			t.Fatalf("trial %d: merged %d arrows (capacity %d) unlike the stable sort's %d:\n got %v\nwant %v", trial, len(got), cap(got), len(want), got, want)
		}
		if rep.UnmatchedSends != wantRep.UnmatchedSends || rep.UnmatchedRecvs != wantRep.UnmatchedRecvs || !slices.Equal(rep.Warnings, wantRep.Warnings) {
			t.Fatalf("trial %d: report %+v, want %+v", trial, rep, wantRep)
		}
	}
}

// Sequential conversion itself must be deterministic run to run (the old
// map-iteration code was not): convert the same log twice, compare bytes.
func TestConvertDeterministicAcrossRuns(t *testing.T) {
	log := randomCLOG(42, 5).log(t)
	a, repA, err := convert(log, ConvertOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, repB, err := convert(log, ConvertOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeSLOG(t, a), encodeSLOG(t, b)) {
		t.Fatal("two sequential conversions of the same log differ")
	}
	if len(repA.Warnings) != len(repB.Warnings) {
		t.Fatalf("warning counts differ: %d vs %d", len(repA.Warnings), len(repB.Warnings))
	}
	for i := range repA.Warnings {
		if repA.Warnings[i] != repB.Warnings[i] {
			t.Fatalf("warning %d differs: %q vs %q", i, repA.Warnings[i], repB.Warnings[i])
		}
	}
}

// The conversion does not depend on where a rank's records are cut into
// blocks, nor on how the ranks' blocks interleave in the file: the log with
// each rank's records in blocks as long as a block may be converts to the
// bytes of the same records cut into blocks of 1 to 40 records, dealt
// round the ranks.
func TestConvertReaderIgnoresBlockCuts(t *testing.T) {
	b := randomCLOG(7, 4)
	whole, repW, err := convert(b.log(t), ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var buf bytes.Buffer
	w, err := clog2.NewWriter(&buf, b.nranks)
	if err == nil {
		err = w.WriteBlock(0, b.defs)
	}
	for left := true; left && err == nil; {
		left = false
		for r := int32(0); r < int32(b.nranks) && err == nil; r++ {
			recs := b.blocks[r]
			n := min(len(recs), 1+rng.Intn(40))
			if n > 0 {
				err = w.WriteBlock(r, recs[:n])
			}
			b.blocks[r] = recs[n:]
			left = left || len(recs) > n
		}
	}
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	cut, repC, err := convert(buf.Bytes(), ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if repW.States != repC.States || repW.Arrows != repC.Arrows || repW.Events != repC.Events || !slices.Equal(repW.Warnings, repC.Warnings) {
		t.Fatalf("reports differ: %+v vs %+v", repW, repC)
	}
	if !bytes.Equal(encodeSLOG(t, whole), encodeSLOG(t, cut)) {
		t.Fatal("the log cut into small blocks converts to other bytes")
	}
}

// Regression for the coarse-clock tie-break: a state-end and the next
// state-start logged at an identical timestamp must keep their original
// record order, or pairing desynchronizes and reports spurious nesting
// errors and Equal Drawables.
func TestConvertCoarseClockTieBreak(t *testing.T) {
	b := newCLOG(1)
	b.defState(1, "S", "red")
	// 100 back-to-back states on a clock so coarse that each end shares
	// its timestamp with the next start (and several full states collapse
	// to the same instant pair).
	const n = 100
	for i := 0; i < n; i++ {
		t0 := float64(i / 4) // plateaus of 4 states per tick
		t1 := float64((i + 1) / 4)
		b.blocks[0] = append(b.blocks[0],
			clog2.Record{Type: clog2.RecCargoEvt, Time: t0, Rank: 0, ID: 2},
			clog2.Record{Type: clog2.RecCargoEvt, Time: t1, Rank: 0, ID: 3},
		)
	}
	f, rep, err := convert(b.log(t), ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NestingErrors != 0 {
		t.Fatalf("coarse clock produced %d spurious nesting errors: %v", rep.NestingErrors, rep.Warnings)
	}
	if rep.States != n {
		t.Fatalf("states = %d, want %d", rep.States, n)
	}
	states, _, _ := f.All()
	for _, s := range states {
		if s.End < s.Start {
			t.Fatalf("inverted state [%v,%v]", s.Start, s.End)
		}
	}
}

// Same tie-break, cross-checked at several worker counts: identical
// timestamps must not let the parallel path reorder records either.
func TestConvertCoarseClockTieBreakParallel(t *testing.T) {
	b := newCLOG(4)
	b.defState(1, "S", "red")
	for rank := int32(0); rank < 4; rank++ {
		for i := 0; i < 50; i++ {
			tick := float64(i / 5)
			b.blocks[rank] = append(b.blocks[rank],
				clog2.Record{Type: clog2.RecCargoEvt, Time: tick, Rank: rank, ID: 2},
				clog2.Record{Type: clog2.RecCargoEvt, Time: tick, Rank: rank, ID: 3},
			)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		_, rep, err := convert(b.log(t), ConvertOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if rep.NestingErrors != 0 {
			t.Fatalf("workers=%d: %d spurious nesting errors: %v", workers, rep.NestingErrors, rep.Warnings[:min(3, len(rep.Warnings))])
		}
		if rep.States != 200 {
			t.Fatalf("workers=%d: states = %d, want 200", workers, rep.States)
		}
	}
}

// A synthetic end fabricated by mpe.Logger.Finish closes the state but
// still counts as a nesting error — the program being debugged left it
// open.
func TestConvertSyntheticEndCounted(t *testing.T) {
	b := newCLOG(1)
	b.defState(1, "S", "red")
	b.blocks[0] = append(b.blocks[0],
		cargoEvt(1, 0, 2, "line: 5"),
		cargoEvt(9, 0, 3, mpe.SyntheticEndCargo),
	)
	f, rep, err := convert(b.log(t), ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.States != 1 {
		t.Fatalf("states = %d, want the synthetically closed state kept", rep.States)
	}
	if rep.NestingErrors != 1 {
		t.Fatalf("NestingErrors = %d, want 1 for the synthetic close", rep.NestingErrors)
	}
	found := false
	for _, w := range rep.Warnings {
		if strings.Contains(w, "closed synthetically") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no synthetic-close warning in %v", rep.Warnings)
	}
	states, _, _ := f.All()
	if len(states) != 1 || states[0].Start != 1 || states[0].End != 9 {
		t.Fatalf("state %+v", states)
	}
}

// Cargo text that fills a piece of the log's text to the byte, each start's
// followed by an end that carries none: every cargo reads back from its
// piece, the last one's from the piece sealed when the log ended.
func TestConvertCargoFillingATextPiece(t *testing.T) {
	const cargo = "line: 01"
	b := newCLOG(1)
	b.defState(1, "S", "red")
	for i := range textPiece / len(cargo) {
		b.state(0, 1, float64(i), float64(i)+0.5, cargo)
	}
	f, rep, err := convert(b.log(t), ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	states, _, _ := f.All()
	if rep.States != textPiece/len(cargo) || len(states) != rep.States {
		t.Fatalf("%d states, report %+v", len(states), rep)
	}
	for _, s := range states {
		if s.StartCargo != cargo || s.EndCargo != "" {
			t.Fatalf("state %+v, want start cargo %q", s, cargo)
		}
	}
}

// A record on a rank the header does not declare, or a message half whose
// peer is no such rank, used to convert with a warning into a file that
// had dropped it, while the fold under the profile kept it. No writer
// writes such a log: the Writer refuses the block by name, and the reader
// refuses the same block built byte by byte, so the conversion fails,
// naming it, at every worker count.
func TestConvertRefusesOutOfRangeRanks(t *testing.T) {
	good := newCLOG(2)
	good.defState(1, "PI_Write", "green")
	good.state(0, 1, 1.0, 1.2, "line: 10")
	good.state(1, 1, 1.1, 1.4, "line: 11")
	bare := clog2.Record{Type: clog2.RecBareEvt, Time: 2, Rank: 7, ID: 2}
	msg := func(rank, peer int32) clog2.Record {
		return clog2.Record{Type: clog2.RecMsgEvt, Time: 1.5, Rank: rank, Dir: clog2.DirSend, Aux1: peer, Aux2: 5, Aux3: 8}
	}
	for _, c := range []struct {
		rank int32
		rec  clog2.Record
		want string
	}{
		{7, bare, "clog2: a block of rank 7 in a log of 2 ranks"},
		{1, bare, "clog2: a BareEvt record of rank 7 in a block of rank 1"},
		{0, msg(0, -5), "clog2: a message half of rank 0 names peer rank -5, outside [0,2)"},
		{1, msg(1, 9), "clog2: a message half of rank 1 names peer rank 9, outside [0,2)"},
	} {
		w, err := clog2.NewWriter(io.Discard, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteBlock(c.rank, []clog2.Record{c.rec}); err == nil || err.Error() != c.want {
			t.Errorf("WriteBlock(%d, %+v): %v, want %s", c.rank, c.rec, err, c.want)
		}
		// The good log with the block appended before its end-log marker.
		data := good.log(t)
		tab, err := clog2.ReadTable(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		raw := clog2.AppendBlockHeader(slices.Clone(data[:tab.LogSize()-1]), c.rank, 1)
		raw, _ = clog2.AppendRecord(raw, &c.rec)
		raw = append(raw, byte(clog2.RecEndBlock), byte(clog2.RecEndLog))
		if _, _, err := ConvertReader(bytes.NewReader(raw), ConvertOptions{}); err == nil || err.Error() != c.want {
			t.Errorf("a stream: converting a block of rank %d holding %+v: %v, want %s", c.rank, c.rec, err, c.want)
		}
		for _, workers := range []int{1, 4} {
			if _, _, err := convert(raw, ConvertOptions{Workers: workers}); err == nil || err.Error() != c.want {
				t.Errorf("workers %d: converting a block of rank %d holding %+v: %v, want %s", workers, c.rank, c.rec, err, c.want)
			}
		}
	}
}

// The converter's allocation, per record of a synthesized 200 000-record
// log: 74 B (amd64), against 94 B when every bare and cargo event was
// copied into its rank's log before a pairing pass, and 177 B when each
// rank's pairing had its own result slices, every level of the frame tree
// copied its drawables and arrows were sorted after the fact. The ceiling
// is that measurement and a fifth more; the least of three conversions is
// what is held to it, because the decoder's buffers come from pools that
// the race detector drops a Put of in four.
func TestConvertReaderAllocationCeiling(t *testing.T) {
	const ranks, records, ceiling = 8, 200_000, 89
	b := newCLOG(ranks)
	b.defState(1, "PI_Write", "green")
	b.defState(2, "PI_Read", "red")
	b.defEvent(1, "MsgArrival", "yellow")
	n := 0
	for i := 0; n < records; i++ {
		rank := int32(i % ranks)
		peer := (rank + 1) % ranks
		t0 := float64(i) * 1e-5
		b.state(rank, 1, t0, t0+4e-6, "line: 17 proc: P3")
		b.send(rank, peer, rank%4, t0+1e-6, 256)
		b.state(peer, 2, t0+5e-6, t0+8e-6, "line: 42")
		b.recv(peer, rank, rank%4, t0+6e-6, 256)
		b.event(peer, 1, t0+7e-6, "arrived")
		n += 7
	}
	data := b.log(t)

	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, rep, err := ConvertReader(bytes.NewReader(data), ConvertOptions{Workers: 1})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if rep.States*2+rep.Arrows*2+rep.Events != n || len(rep.Warnings) != 0 {
			t.Fatalf("%d records in, report %+v", n, rep)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	perRecord := float64(least) / float64(n)
	t.Logf("%.0f B allocated a record (%d records)", perRecord, n)
	if perRecord > ceiling {
		t.Fatalf("ConvertReader allocates %.0f B a record, ceiling %d", perRecord, ceiling)
	}
}

// The Equal Drawables count against the table of every drawable it used
// to be computed from, on logs full of tied timestamps.
func TestEqualDrawablesMatchesFullTable(t *testing.T) {
	tested := 0
	for seed := int64(0); seed < 40; seed++ {
		f, rep, err := convert(randomCLOG(seed, 1+int(seed%6)).log(t), ConvertOptions{})
		if err != nil {
			t.Fatal(err)
		}
		type key struct {
			kind, cat, src, dst int
			lo, hi              float64
		}
		seen := map[key]int{}
		states, arrows, events := f.All()
		for _, s := range states {
			seen[key{kind: 0, cat: s.Cat, lo: s.Start, hi: s.End, src: s.Rank}]++
		}
		for _, a := range arrows {
			seen[key{kind: 1, lo: a.Start, hi: a.End, src: a.SrcRank, dst: a.DstRank}]++
		}
		for _, e := range events {
			seen[key{kind: 2, cat: e.Cat, lo: e.Time, hi: e.Time, src: e.Rank}]++
		}
		count, groups := 0, 0
		for _, n := range seen {
			if n > 1 {
				count += n - 1
				groups++
			}
		}
		if count == 0 {
			if rep.EqualDrawables != 0 {
				t.Fatalf("seed %d: EqualDrawables %d, want 0", seed, rep.EqualDrawables)
			}
			continue
		}
		tested++
		want := fmt.Sprintf("Equal Drawables: %d drawable(s) in %d group(s) share", count, groups)
		if rep.EqualDrawables != count || !slices.ContainsFunc(rep.Warnings, func(w string) bool { return strings.HasPrefix(w, want) }) {
			t.Fatalf("seed %d: EqualDrawables %d, want %q among %q", seed, rep.EqualDrawables, want, rep.Warnings)
		}
	}
	if tested < 20 {
		t.Fatalf("only %d logs had equal drawables", tested)
	}
}
