package slog2

import (
	"bytes"
	"cmp"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/clog2"
)

// clogBuilder assembles a CLOG-2 log in memory, to encode through a
// clog2.Writer (log) and convert through ConvertReader (convert). States are
// defined with sequential IDs beginning at 1 (etypes 2/3, 4/5, ...),
// events at solo etypes.
type clogBuilder struct {
	nranks int
	defs   []clog2.Record
	blocks map[int32][]clog2.Record
}

func newCLOG(nranks int) *clogBuilder {
	return &clogBuilder{nranks: nranks, blocks: map[int32][]clog2.Record{}}
}

func (b *clogBuilder) defState(id int32, name, color string) {
	b.defs = append(b.defs, clog2.Record{
		Type: clog2.RecStateDef, ID: id, Aux1: id * 2, Aux2: id*2 + 1,
		Color: color, Name: name,
	})
}

func (b *clogBuilder) defEvent(id int32, name, color string) {
	b.defs = append(b.defs, clog2.Record{
		Type: clog2.RecEventDef, ID: 1<<20 + id, Color: color, Name: name,
	})
}

func cargoEvt(time float64, rank, id int32, cargo string) clog2.Record {
	r := clog2.Record{Type: clog2.RecCargoEvt, Time: time, Rank: rank, ID: id}
	r.SetCargo(cargo)
	return r
}

func (b *clogBuilder) state(rank int32, id int32, t0, t1 float64, cargo string) {
	b.blocks[rank] = append(b.blocks[rank],
		cargoEvt(t0, rank, id*2, cargo),
		cargoEvt(t1, rank, id*2+1, ""),
	)
}

func (b *clogBuilder) event(rank int32, id int32, t float64, cargo string) {
	b.blocks[rank] = append(b.blocks[rank], cargoEvt(t, rank, 1<<20+id, cargo))
}

func (b *clogBuilder) send(rank, dst, tag int32, t float64, size int32) {
	b.blocks[rank] = append(b.blocks[rank],
		clog2.Record{Type: clog2.RecMsgEvt, Time: t, Rank: rank, Dir: clog2.DirSend, Aux1: dst, Aux2: tag, Aux3: size})
}

func (b *clogBuilder) recv(rank, src, tag int32, t float64, size int32) {
	b.blocks[rank] = append(b.blocks[rank],
		clog2.Record{Type: clog2.RecMsgEvt, Time: t, Rank: rank, Dir: clog2.DirRecv, Aux1: src, Aux2: tag, Aux3: size})
}

// log encodes the built log: the definitions as rank 0's first block, then
// each rank's records in blocks as long as a block may be, in rank order.
// A rank's records go in time order, as a logger stamps them (the rule of a
// block, clog2.Block): stably sorted, so records built at one time keep the
// order they were built in.
func (b *clogBuilder) log(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := clog2.NewWriter(&buf, b.nranks)
	if err == nil {
		err = w.WriteBlock(0, b.defs)
	}
	for r := int32(0); r < int32(b.nranks) && err == nil; r++ {
		if recs, ok := b.blocks[r]; ok {
			slices.SortStableFunc(recs, func(a, b clog2.Record) int { return cmp.Compare(a.Time, b.Time) })
			err = w.WriteCut(clog2.NewCut(r, b.nranks, clog2.MaxBlockRecords, recs))
		}
	}
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rawLog encodes blocks as they are, with no Writer to refuse one that
// breaks the rule of a block (clog2.Block): a log written outside the tree.
func rawLog(nranks int, blocks ...clog2.Block) []byte {
	log := clog2.AppendHeader(nil, nranks)
	for _, b := range blocks {
		log = clog2.AppendBlockHeader(log, b.Rank, len(b.Records))
		for i := range b.Records {
			log, _ = clog2.AppendRecord(log, &b.Records[i])
		}
		log = append(log, byte(clog2.RecEndBlock))
	}
	return append(log, byte(clog2.RecEndLog))
}

// convert converts an encoded log as a file is converted: rank by rank
// through its block table, on opts.Workers workers.
func convert(log []byte, opts ConvertOptions) (*File, *Report, error) {
	return ConvertInput(clog2.TableInput(clog2.Source{R: bytes.NewReader(log), Size: int64(len(log))}), opts)
}

func TestConvertBasicStatesAndArrow(t *testing.T) {
	b := newCLOG(2)
	b.defState(1, "PI_Write", "green")
	b.defState(2, "PI_Read", "red")
	b.defEvent(1, "MsgArrival", "yellow")
	b.state(0, 1, 1.0, 1.2, "line: 10")
	b.state(1, 2, 0.9, 1.5, "line: 20")
	b.send(0, 1, 7, 1.05, 64)
	b.recv(1, 0, 7, 1.4, 64)
	b.event(1, 1, 1.4, "chan: C1")

	f, rep, err := convert(b.log(t), ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.States != 2 || rep.Arrows != 1 || rep.Events != 1 {
		t.Fatalf("report %+v", rep)
	}
	if rep.EqualDrawables != 0 || rep.NestingErrors != 0 || rep.UnmatchedSends != 0 {
		t.Fatalf("unexpected warnings: %+v", rep)
	}
	states, arrows, events := f.All()
	if len(states) != 2 || len(arrows) != 1 || len(events) != 1 {
		t.Fatalf("drawables %d/%d/%d", len(states), len(arrows), len(events))
	}
	a := arrows[0]
	if a.SrcRank != 0 || a.DstRank != 1 || a.Start != 1.05 || a.End != 1.4 || a.Tag != 7 || a.Size != 64 {
		t.Fatalf("arrow %+v", a)
	}
	wi := f.CategoryIndex("PI_Write")
	ri := f.CategoryIndex("PI_Read")
	if wi < 0 || ri < 0 {
		t.Fatalf("categories missing: %v", f.Categories)
	}
	if f.Categories[wi].Color != "green" || f.Categories[ri].Color != "red" {
		t.Fatal("category colours lost")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if f.Start != 0.9 || f.End != 1.5 {
		t.Fatalf("bounds [%v,%v]", f.Start, f.End)
	}
}

func TestConvertNestedStates(t *testing.T) {
	b := newCLOG(1)
	b.defState(1, "Compute", "gray")
	b.defState(2, "PI_Read", "red")
	// Read nested within Compute: start order C, R; end order R, C.
	b.blocks[0] = append(b.blocks[0],
		clog2.Record{Type: clog2.RecCargoEvt, Time: 1, Rank: 0, ID: 2},  // Compute start
		clog2.Record{Type: clog2.RecCargoEvt, Time: 2, Rank: 0, ID: 4},  // Read start
		clog2.Record{Type: clog2.RecCargoEvt, Time: 3, Rank: 0, ID: 5},  // Read end
		clog2.Record{Type: clog2.RecCargoEvt, Time: 10, Rank: 0, ID: 3}, // Compute end
	)
	f, rep, err := convert(b.log(t), ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NestingErrors != 0 {
		t.Fatalf("nesting errors: %v", rep.Warnings)
	}
	states, _, _ := f.All()
	if len(states) != 2 {
		t.Fatalf("states %+v", states)
	}
	var comp, read *State
	for i := range states {
		switch f.Categories[states[i].Cat].Name {
		case "Compute":
			comp = &states[i]
		case "PI_Read":
			read = &states[i]
		}
	}
	if comp == nil || read == nil {
		t.Fatal("missing states")
	}
	if !(read.Start >= comp.Start && read.End <= comp.End) {
		t.Fatalf("nesting broken: %+v in %+v", read, comp)
	}
}

// The converter pairs states and matches messages through clog2, so an
// ill-formed log reads the way the fold and the analyzer read it: an end
// closes the innermost open state and names the occurrence (a mismatch is
// counted), messages match per (src, dst, tag), a rank is sorted before
// pairing, and a non-finite timestamp is dropped with a warning.
func TestConvertNestingErrors(t *testing.T) {
	evt := func(rank int32, time float64, etype int32) clog2.Record {
		return clog2.Record{Type: clog2.RecCargoEvt, Time: time, Rank: rank, ID: etype}
	}
	type state struct {
		rank, cat  int
		start, end float64
	}
	type arrow struct {
		src, dst   int
		start, end float64
	}
	for _, c := range []struct {
		name                 string
		ranks                int
		recs                 []clog2.Record
		nesting, sends, recv int
		states               []state
		arrows               []arrow
		warning              string
		refused              string // the reader's refusal of the records as they lie
	}{{
		name:  "unpaired",
		ranks: 1,
		recs: []clog2.Record{
			evt(0, 1, 2), // A start
			evt(0, 2, 5), // B end (mismatch)
			evt(0, 3, 5), // B end, stack empty
			evt(0, 4, 4), // B start, never closed
		},
		nesting: 3,
		states:  []state{{0, 1, 1, 2}},
	}, {
		name:    "mismatched end names the occurrence",
		ranks:   1,
		recs:    []clog2.Record{evt(0, 1, 2), evt(0, 1.5, 4), evt(0, 2, 3), evt(0, 3, 5)},
		nesting: 2,
		states:  []state{{0, 1, 1, 3}, {0, 0, 1.5, 2}},
		warning: "state 1 closed while 2 open",
	}, {
		name:  "one tag on two rank pairs, one send unmatched",
		ranks: 3,
		recs: []clog2.Record{
			{Type: clog2.RecMsgEvt, Time: 1, Rank: 0, Dir: clog2.DirSend, Aux1: 1, Aux2: 5, Aux3: 8},
			{Type: clog2.RecMsgEvt, Time: 3, Rank: 1, Dir: clog2.DirRecv, Aux1: 2, Aux2: 5, Aux3: 8},
			{Type: clog2.RecMsgEvt, Time: 2, Rank: 2, Dir: clog2.DirSend, Aux1: 1, Aux2: 5, Aux3: 8},
		},
		sends:   1,
		arrows:  []arrow{{2, 1, 2, 3}},
		warning: "message 0->1 tag 5: 1 send(s) without receive",
	}, {
		// The converter used to sort this rank and drop the NaN end; no
		// reader hands either over now (clog2.Block).
		name:  "out-of-order rank with a NaN end",
		ranks: 1,
		recs: []clog2.Record{
			evt(0, 3, 2), evt(0, math.NaN(), 3), evt(0, 4, 3),
			evt(0, 1, 2), evt(0, 2, 3),
		},
		refused: "clog2: a CargoEvt record of rank 0 stamped NaN",
	}, {
		name:    "out-of-order rank",
		ranks:   1,
		recs:    []clog2.Record{evt(0, 3, 2), evt(0, 4, 3), evt(0, 1, 2), evt(0, 2, 3)},
		refused: "clog2: a CargoEvt record of rank 0 stamped 1, before its rank's 4",
	}} {
		t.Run(c.name, func(t *testing.T) {
			b := newCLOG(c.ranks)
			b.defState(1, "A", "red")
			b.defState(2, "B", "green")
			if c.refused != "" {
				log := rawLog(c.ranks, clog2.Block{Rank: 0, Records: append(b.defs, c.recs...)})
				if _, _, err := convert(log, ConvertOptions{}); err == nil || err.Error() != c.refused {
					t.Errorf("ConvertReader gives %v, want %s", err, c.refused)
				}
				return
			}
			for _, r := range c.recs {
				b.blocks[r.Rank] = append(b.blocks[r.Rank], r)
			}
			f, rep, err := convert(b.log(t), ConvertOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.NestingErrors != c.nesting || rep.UnmatchedSends != c.sends || rep.UnmatchedRecvs != c.recv {
				t.Errorf("nesting %d, unmatched sends %d, recvs %d; want %d, %d, %d (%q)",
					rep.NestingErrors, rep.UnmatchedSends, rep.UnmatchedRecvs, c.nesting, c.sends, c.recv, rep.Warnings)
			}
			var states []state
			for _, r := range f.States(math.Inf(-1), math.Inf(1)) {
				states = append(states, state{r.D.Rank, r.D.Cat, r.D.Start, r.D.End})
			}
			var arrows []arrow
			for _, r := range f.Arrows(math.Inf(-1), math.Inf(1)) {
				arrows = append(arrows, arrow{r.D.SrcRank, r.D.DstRank, r.D.Start, r.D.End})
			}
			if !slices.Equal(states, c.states) || !slices.Equal(arrows, c.arrows) {
				t.Errorf("states %v, arrows %v; want %v, %v", states, arrows, c.states, c.arrows)
			}
			if c.warning != "" && !slices.ContainsFunc(rep.Warnings, func(w string) bool { return strings.Contains(w, c.warning) }) {
				t.Errorf("no warning %q in %q", c.warning, rep.Warnings)
			}
		})
	}
}

func TestConvertUnmatchedMessages(t *testing.T) {
	b := newCLOG(2)
	b.defState(1, "S", "red")
	b.state(0, 1, 0, 1, "")
	b.send(0, 1, 1, 0.1, 8)
	b.send(0, 1, 1, 0.2, 8)
	b.recv(1, 0, 1, 0.5, 8)
	b.recv(1, 0, 2, 0.6, 8) // tag 2 never sent
	_, rep, err := convert(b.log(t), ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Arrows != 1 || rep.UnmatchedSends != 1 || rep.UnmatchedRecvs != 1 {
		t.Fatalf("report %+v", rep)
	}
}

func TestConvertSizeMismatchWarns(t *testing.T) {
	b := newCLOG(2)
	b.defState(1, "S", "red")
	b.state(0, 1, 0, 1, "")
	b.send(0, 1, 1, 0.1, 8)
	b.recv(1, 0, 1, 0.5, 16)
	_, rep, err := convert(b.log(t), ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range rep.Warnings {
		if strings.Contains(w, "send size 8 != recv size 16") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no size-mismatch warning in %v", rep.Warnings)
	}
}

// The paper's "Equal Drawables" warning: drawables of one category with
// identical start and end times, caused by limited clock resolution.
func TestEqualDrawablesDetected(t *testing.T) {
	b := newCLOG(3)
	b.defState(1, "PI_Write", "green")
	// Three arrows logged at exactly the same (truncated) instants.
	for dst := int32(1); dst <= 2; dst++ {
		b.send(0, dst, 5, 1.000, 8)
	}
	b.send(0, 1, 6, 1.000, 8)
	b.recv(1, 0, 5, 1.001, 8)
	b.recv(2, 0, 5, 1.001, 8)
	b.recv(1, 0, 6, 1.001, 8)
	b.state(0, 1, 1.000, 1.001, "")
	f, rep, err := convert(b.log(t), ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Arrows 0->1 tag5, 0->1 tag6 differ in tag but (src,dst) pair 0->1 has
	// two arrows with identical times → at least one equal drawable.
	if rep.EqualDrawables < 1 {
		t.Fatalf("EqualDrawables = %d, want >= 1", rep.EqualDrawables)
	}
	hasWarning := false
	for _, w := range f.Warnings {
		if strings.Contains(w, "Equal Drawables") {
			hasWarning = true
		}
	}
	if !hasWarning {
		t.Fatalf("no Equal Drawables warning in %v", f.Warnings)
	}
}

func TestEqualDrawablesAbsentWhenSpread(t *testing.T) {
	b := newCLOG(3)
	b.defState(1, "PI_Write", "green")
	b.state(0, 1, 1.0, 1.01, "")
	// Same fan-out but spread by 1 ms, the paper's usleep workaround.
	b.send(0, 1, 5, 1.000, 8)
	b.send(0, 2, 5, 1.001, 8)
	b.recv(1, 0, 5, 1.002, 8)
	b.recv(2, 0, 5, 1.003, 8)
	_, rep, err := convert(b.log(t), ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.EqualDrawables != 0 {
		t.Fatalf("EqualDrawables = %d with spread timestamps", rep.EqualDrawables)
	}
}

func TestFrameTreeSplitsAndQuery(t *testing.T) {
	b := newCLOG(4)
	b.defState(1, "S", "red")
	rng := rand.New(rand.NewSource(7))
	const n = 2000
	for i := 0; i < n; i++ {
		rank := int32(rng.Intn(4))
		t0 := rng.Float64() * 100
		b.state(rank, 1, t0, t0+rng.Float64(), "")
	}
	f, rep, err := convert(b.log(t), ConvertOptions{FrameCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	if rep.States != n {
		t.Fatalf("states = %d", rep.States)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if d := f.Depth(); d < 3 {
		t.Fatalf("tree depth %d; capacity 64 with %d drawables should split", d, n)
	}
	// Query returns exactly the states intersecting the window.
	states, _, _ := f.Query(25, 30)
	all, _, _ := f.All()
	want := 0
	for _, s := range all {
		if s.End >= 25 && s.Start <= 30 {
			want++
		}
	}
	if len(states) != want {
		t.Fatalf("Query returned %d states, want %d", len(states), want)
	}
	for _, s := range states {
		if s.End < 25 || s.Start > 30 {
			t.Fatalf("state [%v,%v] outside query window", s.Start, s.End)
		}
	}
	// Total drawables preserved.
	if len(all) != n {
		t.Fatalf("All() returned %d states, want %d", len(all), n)
	}
}

func TestFrameCapacityControlsDepth(t *testing.T) {
	mk := func(capacity int) int {
		b := newCLOG(2)
		b.defState(1, "S", "red")
		for i := 0; i < 500; i++ {
			t0 := float64(i)
			b.state(0, 1, t0, t0+0.5, "")
		}
		f, _, err := convert(b.log(t), ConvertOptions{FrameCapacity: capacity})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return f.Depth()
	}
	small := mk(16)
	large := mk(1024)
	if small <= large {
		t.Fatalf("depth(capacity=16)=%d should exceed depth(capacity=1024)=%d", small, large)
	}
	if large != 1 {
		t.Fatalf("capacity 1024 over 500 drawables should not split, depth=%d", large)
	}
}

func TestConvertEmptyLog(t *testing.T) {
	b := newCLOG(2)
	b.defState(1, "S", "red")
	f, rep, err := convert(b.log(t), ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.States != 0 || f.Root == nil {
		t.Fatalf("empty conversion: rep=%+v root=%v", rep, f.Root)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadRoundtrip(t *testing.T) {
	b := newCLOG(3)
	b.defState(1, "PI_Write", "green")
	b.defState(2, "PI_Read", "red")
	b.defEvent(1, "MsgArrival", "yellow")
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		rank := int32(rng.Intn(3))
		t0 := rng.Float64() * 50
		b.state(rank, int32(rng.Intn(2)+1), t0, t0+rng.Float64(), "cargo")
		b.event(rank, 1, t0, "ev")
	}
	b.send(0, 1, 1, 3, 10)
	b.recv(1, 0, 1, 4, 10)
	f, _, err := convert(b.log(t), ConvertOptions{FrameCapacity: 50})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	g, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRanks != f.NumRanks || g.Start != f.Start || g.End != f.End {
		t.Fatalf("header changed: %+v vs %+v", g, f)
	}
	if len(g.Categories) != len(f.Categories) {
		t.Fatalf("categories %d vs %d", len(g.Categories), len(f.Categories))
	}
	for i := range g.Categories {
		if g.Categories[i] != f.Categories[i] {
			t.Fatalf("category %d changed: %+v vs %+v", i, g.Categories[i], f.Categories[i])
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s1, a1, e1 := f.All()
	s2, a2, e2 := g.All()
	if len(s1) != len(s2) || len(a1) != len(a2) || len(e1) != len(e2) {
		t.Fatalf("drawable counts changed: %d/%d/%d vs %d/%d/%d",
			len(s1), len(a1), len(e1), len(s2), len(a2), len(e2))
	}
	if g.Depth() != f.Depth() {
		t.Fatalf("tree depth changed: %d vs %d", g.Depth(), f.Depth())
	}
}

func TestWriteFileReadFile(t *testing.T) {
	b := newCLOG(1)
	b.defState(1, "S", "red")
	b.state(0, 1, 0, 1, "x")
	f, _, err := convert(b.log(t), ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/x.slog2"
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	g, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not-slog"))); err == nil {
		t.Fatal("garbage read succeeded")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty read succeeded")
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	b := newCLOG(2)
	b.defState(1, "S", "red")
	for i := 0; i < 50; i++ {
		b.state(0, 1, float64(i), float64(i)+0.5, "cargo")
	}
	f, _, err := convert(b.log(t), ConvertOptions{FrameCapacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := len(Magic); cut < len(full)-1; cut += 13 {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncated read at %d succeeded", cut)
		}
	}
}

func TestWriteNilFileFails(t *testing.T) {
	if err := Write(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("Write(nil) succeeded")
	}
	if err := Write(&bytes.Buffer{}, &File{}); err == nil {
		t.Fatal("Write(no root) succeeded")
	}
}

// Property: Query over random windows equals a brute-force filter of
// All — the agreement the pilot-serve tile handler relies on.
func TestQueryMatchesBruteForceRandomWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := newCLOG(5)
	b.defState(1, "A", "red")
	b.defState(2, "B", "green")
	b.defEvent(1, "E", "yellow")
	for i := 0; i < 1500; i++ {
		rank := int32(rng.Intn(5))
		t0 := rng.Float64() * 60
		b.state(rank, int32(rng.Intn(2)+1), t0, t0+rng.Float64()*2, "")
		if rng.Intn(4) == 0 {
			b.event(rank, 1, t0, "")
		}
		if rng.Intn(6) == 0 {
			dst := int32(rng.Intn(5))
			tm := rng.Float64() * 60
			b.send(rank, dst, int32(i), tm, 8)
			b.recv(dst, rank, int32(i), tm+rng.Float64(), 8)
		}
	}
	f, _, err := convert(b.log(t), ConvertOptions{FrameCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	states, arrows, events := f.All()
	for trial := 0; trial < 200; trial++ {
		t0 := f.Start + rng.Float64()*(f.End-f.Start)
		t1 := t0 + rng.Float64()*(f.End-t0)
		qs, qa, qe := f.Query(t0, t1)
		var ws, wa, we int
		for _, s := range states {
			if s.End >= t0 && s.Start <= t1 {
				ws++
			}
		}
		for _, a := range arrows {
			lo, hi := a.Start, a.End
			if hi < lo {
				lo, hi = hi, lo
			}
			if hi >= t0 && lo <= t1 {
				wa++
			}
		}
		for _, e := range events {
			if e.Time >= t0 && e.Time <= t1 {
				we++
			}
		}
		if len(qs) != ws || len(qa) != wa || len(qe) != we {
			t.Fatalf("window [%v,%v]: Query %d/%d/%d, brute force %d/%d/%d",
				t0, t1, len(qs), len(qa), len(qe), ws, wa, we)
		}
		for i := 1; i < len(qs); i++ {
			if qs[i].Start < qs[i-1].Start {
				t.Fatal("Query states out of start order")
			}
		}
	}
}

// Property: random logs convert to invariant-satisfying trees that
// preserve every drawable, at several frame capacities.
func TestConvertRandomProperty(t *testing.T) {
	for _, capacity := range []int{1, 8, 64, 4096} {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			nr := rng.Intn(6) + 1
			b := newCLOG(nr)
			b.defState(1, "A", "red")
			b.defState(2, "B", "green")
			b.defEvent(1, "E", "yellow")
			n := rng.Intn(300)
			for i := 0; i < n; i++ {
				rank := int32(rng.Intn(nr))
				t0 := rng.Float64() * 10
				b.state(rank, int32(rng.Intn(2)+1), t0, t0+rng.Float64()*0.2, "")
				if rng.Intn(3) == 0 {
					b.event(rank, 1, t0, "")
				}
			}
			f, rep, err := convert(b.log(t), ConvertOptions{FrameCapacity: capacity})
			if err != nil {
				t.Fatalf("capacity=%d seed=%d: %v", capacity, seed, err)
			}
			if err := f.CheckInvariants(); err != nil {
				t.Fatalf("capacity=%d seed=%d: %v", capacity, seed, err)
			}
			s, _, e := f.All()
			if len(s) != rep.States || len(e) != rep.Events {
				t.Fatalf("capacity=%d seed=%d: drawables lost", capacity, seed)
			}
		}
	}
}

// Read parses a complete SLOG-2 file.
func Read(r io.Reader) (*File, error) { return read(r, 0) }
