package slog2

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/clog2"
	"repro/internal/mpe"
)

// randomCLOG builds a messy multi-rank log: states, events, fan-out
// messages, duplicate timestamps, and a few nesting errors — everything
// the converter has diagnostics for.
func randomCLOG(seed int64, nranks int) *clog2.File {
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
	return b.file()
}

func encodeSLOG(t *testing.T, f *File) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The tentpole guarantee: parallel conversion output is byte-identical to
// sequential output, including warning order, at every worker count.
func TestConvertParallelByteIdentical(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		cf := randomCLOG(seed, 1+int(seed))
		ref, refRep, err := Convert(cf, ConvertOptions{Workers: 1})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		refBytes := encodeSLOG(t, ref)
		for _, workers := range []int{2, 4, 8} {
			got, gotRep, err := Convert(cf, ConvertOptions{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if gotRep.States != refRep.States || gotRep.Arrows != refRep.Arrows ||
				gotRep.Events != refRep.Events || gotRep.NestingErrors != refRep.NestingErrors ||
				gotRep.UnmatchedSends != refRep.UnmatchedSends || gotRep.UnmatchedRecvs != refRep.UnmatchedRecvs ||
				gotRep.EqualDrawables != refRep.EqualDrawables {
				t.Fatalf("seed %d workers %d: report %+v != %+v", seed, workers, gotRep, refRep)
			}
			if len(gotRep.Warnings) != len(refRep.Warnings) {
				t.Fatalf("seed %d workers %d: %d warnings != %d", seed, workers, len(gotRep.Warnings), len(refRep.Warnings))
			}
			for i := range gotRep.Warnings {
				if gotRep.Warnings[i] != refRep.Warnings[i] {
					t.Fatalf("seed %d workers %d: warning %d %q != %q", seed, workers, i, gotRep.Warnings[i], refRep.Warnings[i])
				}
			}
			if !bytes.Equal(encodeSLOG(t, got), refBytes) {
				t.Fatalf("seed %d workers %d: serialized output differs from sequential", seed, workers)
			}
			if err := got.CheckInvariants(); err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
		}
	}
}

// Sequential conversion itself must be deterministic run to run (the old
// map-iteration code was not): convert the same log twice, compare bytes.
func TestConvertDeterministicAcrossRuns(t *testing.T) {
	cf := randomCLOG(42, 5)
	a, repA, err := Convert(cf, ConvertOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, repB, err := Convert(cf, ConvertOptions{Workers: 1})
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

// ConvertReader (streaming blocks from the wire format) must agree with
// Convert over the parsed file, byte for byte.
func TestConvertReaderMatchesConvert(t *testing.T) {
	cf := randomCLOG(7, 4)
	fromFile, repF, err := Convert(cf, ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fromStream, repS, err := ConvertReader(bytes.NewReader(encodeCLOG(t, cf)), ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if repF.States != repS.States || repF.Arrows != repS.Arrows || repF.Events != repS.Events {
		t.Fatalf("reports differ: %+v vs %+v", repF, repS)
	}
	if !bytes.Equal(encodeSLOG(t, fromFile), encodeSLOG(t, fromStream)) {
		t.Fatal("streaming conversion differs from in-memory conversion")
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
	f, rep, err := Convert(b.file(), ConvertOptions{})
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
		_, rep, err := Convert(b.file(), ConvertOptions{Workers: workers})
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
	f, rep, err := Convert(b.file(), ConvertOptions{})
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

// orderByTime against the index sort it replaced: sort.Slice over record
// indices with (time, index) as the key — on sorted, reversed, shuffled
// and heavily tied input.
func TestOrderByTimeMatchesSortSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(400)
		recs := make([]timed, n)
		for i := range recs {
			recs[i].id = int32(i) // the original sequence
			switch trial % 4 {
			case 0: // already in order, with ties
				recs[i].t = float64(i / 3)
			case 1: // reversed
				recs[i].t = float64(n - i)
			case 2: // coarse clock: mostly ties
				recs[i].t = float64(rng.Intn(5))
			default:
				recs[i].t = rng.Float64()
			}
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			ra, rb := &recs[order[a]], &recs[order[b]]
			if ra.t != rb.t {
				return ra.t < rb.t
			}
			return order[a] < order[b]
		})
		orderByTime(recs)
		for i := range recs {
			if int(recs[i].id) != order[i] {
				t.Fatalf("trial %d: position %d holds record %d, reference %d", trial, i, recs[i].id, order[i])
			}
		}
	}
}

// encodeCLOG serialises a parsed log, block for block.
func encodeCLOG(t testing.TB, f *clog2.File) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := clog2.NewWriter(&buf, f.NumRanks)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range f.Blocks {
		if err := w.WriteBlock(b.Rank, b.Records); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A record on a rank the header does not declare, or a message half whose
// peer is no such rank, used to convert silently into a file slog2.Read
// rejects. They are dropped, warned about once per offending rank and
// counted; what is in range survives, and the file reads back.
func TestConvertDropsOutOfRangeRanks(t *testing.T) {
	b := newCLOG(2)
	b.defState(1, "PI_Write", "green")
	b.defEvent(1, "MsgArrival", "yellow")
	b.state(0, 1, 1.0, 1.2, "line: 10")
	b.state(1, 1, 1.1, 1.4, "line: 11")
	b.event(1, 1, 1.3, "ev")
	b.send(0, 1, 5, 1.05, 8)
	b.recv(1, 0, 5, 1.15, 8)
	b.state(7, 1, 2.0, 2.5, "nobody's") // two records on rank 7
	b.blocks[1] = append(b.blocks[1], b.blocks[7]...)
	delete(b.blocks, 7)
	b.send(0, -5, 5, 1.5, 8) // a send to peer -5
	b.recv(1, 9, 5, 1.6, 8)  // a receive from peer 9
	b.recv(1, 9, 6, 1.7, 8)
	data := encodeCLOG(t, b.file())

	var ref []byte
	for _, workers := range []int{1, 4} {
		f, rep, err := ConvertReader(bytes.NewReader(data), ConvertOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if rep.OutOfRange != 5 || rep.States != 2 || rep.Events != 1 || rep.Arrows != 1 ||
			rep.UnmatchedSends != 0 || rep.UnmatchedRecvs != 0 {
			t.Fatalf("report %+v", rep)
		}
		var dropped []string
		for _, w := range rep.Warnings {
			if strings.Contains(w, "dropped") {
				dropped = append(dropped, w)
			}
		}
		want := []string{
			"rank 7: 2 record(s) dropped, rank outside [0,2)",
			"rank 0: 1 message half(s) dropped, peer rank -5 outside [0,2)",
			"rank 1: 2 message half(s) dropped, peer rank 9 outside [0,2)",
		}
		if strings.Join(dropped, "\n") != strings.Join(want, "\n") {
			t.Fatalf("warnings:\n%s", strings.Join(dropped, "\n"))
		}
		out := encodeSLOG(t, f)
		back, err := Read(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("converted file does not read back: %v", err)
		}
		states, arrows, events := back.All()
		if len(states) != 2 || len(arrows) != 1 || len(events) != 1 {
			t.Fatalf("read back %d states, %d arrows, %d events", len(states), len(arrows), len(events))
		}
		if ref == nil {
			ref = out
		} else if !bytes.Equal(out, ref) {
			t.Fatalf("workers %d: bytes differ from the sequential conversion", workers)
		}
	}
}

// The converter's allocation, per record of a synthesized 200 000-record
// log: a slice re-grown from nil at every tree level, or a record kept as
// a whole clog2.Record, fails here rather than in a benchmark run.
func TestConvertReaderAllocationCeiling(t *testing.T) {
	const ranks, records, ceiling = 8, 200_000, 500
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
	data := encodeCLOG(t, b.file())

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
	perRecord := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
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
		f, rep, err := Convert(randomCLOG(seed, 1+int(seed%6)), ConvertOptions{})
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
