package analyze

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"repro/internal/clog2"
)

// The string diff the streaming diff replaced, kept as the reference
// DiffBytes is held to: every record rendered through a nine-field
// Sprintf, all of it kept in a per-rank map, then compared.

func oracleSignature(r *clog2.Record) string {
	return fmt.Sprintf("%s|%d|%d|%d|%d|%d|%s|%s|%s",
		r.Type, r.ID, r.Aux1, r.Aux2, r.Aux3, r.Dir, r.Name, r.Color, r.CargoText())
}

func oracleSequences(r io.Reader) (map[int32][]string, error) {
	br, err := clog2.NewBlockReader(r)
	if err != nil {
		return nil, err
	}
	seqs := map[int32][]string{}
	for {
		b, err := br.NextReuse(nil)
		if err == io.EOF {
			return seqs, nil
		}
		if err != nil {
			return nil, err
		}
		for i := range b.Records {
			rec := &b.Records[i]
			switch rec.Type {
			case clog2.RecBareEvt, clog2.RecCargoEvt, clog2.RecMsgEvt:
				seqs[rec.Rank] = append(seqs[rec.Rank], oracleSignature(rec))
			}
		}
	}
}

func oracleDiff(a, b map[int32][]string, nameA, nameB string, opts DiffOptions) *DiffReport {
	opts = opts.withDefaults()
	rep := &DiffReport{Schema: DiffSchema, FileA: nameA, FileB: nameB, Divergences: []Divergence{}}
	ranks := map[int32]bool{}
	for r := range a {
		ranks[r] = true
	}
	for r := range b {
		ranks[r] = true
	}
	ids := make([]int32, 0, len(ranks))
	for r := range ranks {
		ids = append(ids, r)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, rank := range ids {
		if d := oracleDiffRank(int(rank), a[rank], b[rank], opts.Context); d != nil {
			rep.Divergences = append(rep.Divergences, *d)
		}
	}
	rep.Identical = len(rep.Divergences) == 0
	if !rep.Identical {
		first := rep.Divergences[0]
		for _, d := range rep.Divergences[1:] {
			if d.Op < first.Op || (d.Op == first.Op && d.Rank < first.Rank) {
				first = d
			}
		}
		rep.First = &first
	}
	return rep
}

func oracleDiffRank(rank int, sa, sb []string, context int) *Divergence {
	switch {
	case len(sa) == 0 && len(sb) == 0:
		return nil
	case len(sa) == 0:
		return &Divergence{Rank: rank, Op: 0, Kind: "a-missing-rank",
			B: sb[0], ContextB: oracleContextLines(sb, 0, context), LenA: 0, LenB: len(sb)}
	case len(sb) == 0:
		return &Divergence{Rank: rank, Op: 0, Kind: "b-missing-rank",
			A: sa[0], ContextA: oracleContextLines(sa, 0, context), LenA: len(sa), LenB: 0}
	}
	n := min(len(sa), len(sb))
	for i := 0; i < n; i++ {
		if sa[i] != sb[i] {
			return &Divergence{Rank: rank, Op: i, Kind: "mismatch",
				A: sa[i], B: sb[i],
				ContextA: oracleContextLines(sa, i, context),
				ContextB: oracleContextLines(sb, i, context),
				LenA:     len(sa), LenB: len(sb)}
		}
	}
	switch {
	case len(sa) < len(sb):
		return &Divergence{Rank: rank, Op: n, Kind: "a-short",
			B: sb[n], ContextB: oracleContextLines(sb, n, context),
			ContextA: oracleContextLines(sa, n, context),
			LenA:     len(sa), LenB: len(sb)}
	case len(sb) < len(sa):
		return &Divergence{Rank: rank, Op: n, Kind: "b-short",
			A: sa[n], ContextA: oracleContextLines(sa, n, context),
			ContextB: oracleContextLines(sb, n, context),
			LenA:     len(sa), LenB: len(sb)}
	}
	return nil
}

func oracleContextLines(seq []string, i, context int) []string {
	lo := max(i-context, 0)
	hi := min(i+context, len(seq)-1)
	var out []string
	for k := lo; k <= hi; k++ {
		marker := " "
		if k == i {
			marker = ">"
		}
		out = append(out, fmt.Sprintf("%s op %d: %s", marker, k, seq[k]))
	}
	return out
}

func oracleDiffBytes(a, b []byte, nameA, nameB string, opts DiffOptions) (*DiffReport, error) {
	sa, err := oracleSequences(bytes.NewReader(a))
	if err != nil {
		return nil, fmt.Errorf("analyze: diff %s: %w", nameA, err)
	}
	sb, err := oracleSequences(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("analyze: diff %s: %w", nameB, err)
	}
	return oracleDiff(sa, sb, nameA, nameB, opts), nil
}

// mustMatchOracle holds DiffBytes to the string oracle, JSON and text,
// in both argument orders.
func mustMatchOracle(t testing.TB, name string, a, b []byte, opts DiffOptions) {
	t.Helper()
	for _, pair := range [][2][]byte{{a, b}, {b, a}} {
		want, werr := oracleDiffBytes(pair[0], pair[1], "a.clog2", "b.clog2", opts)
		got, gerr := DiffBytes(pair[0], pair[1], "a.clog2", "b.clog2", opts)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: error %v, oracle's %v", name, gerr, werr)
		}
		if werr != nil {
			continue
		}
		wj, _ := want.JSON()
		gj, _ := got.JSON()
		if !bytes.Equal(gj, wj) {
			t.Fatalf("%s (context %d): JSON differs from the string oracle\n--- got\n%s--- want\n%s", name, opts.Context, gj, wj)
		}
		if got.Format() != want.Format() {
			t.Fatalf("%s: Format differs from the string oracle", name)
		}
	}
}

// encodeLog writes blocks, in the order given, as one CLOG-2 image with
// a defs block up front.
func encodeLog(t testing.TB, numRanks int, blocks []clog2.Block) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := clog2.NewWriter(&buf, numRanks)
	if err != nil {
		t.Fatal(err)
	}
	defs := []clog2.Record{
		{Type: clog2.RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Color: "red", Name: "PI_Read"},
		{Type: clog2.RecEventDef, ID: 9, Color: "yellow", Name: "Mark"},
		{Type: clog2.RecConstDef, ID: 12, Aux1: 7, Name: "K"},
	}
	if err := w.WriteBlock(0, defs); err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if err := w.WriteBlock(b.Rank, b.Records); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// genOps draws per-rank op sequences of every kind the diff keys, with
// timeshift and definition records mixed in for it to skip.
func genOps(rng *rand.Rand, ranks, perRank int) map[int32][]clog2.Record {
	ops := map[int32][]clog2.Record{}
	for r := int32(0); r < int32(ranks); r++ {
		for i := 0; i < perRank; i++ {
			rec := clog2.Record{Rank: r, Time: float64(i) * 1e-3}
			switch rng.Intn(5) {
			case 0:
				rec.Type, rec.ID = clog2.RecBareEvt, int32(2+rng.Intn(4))
			case 1:
				rec.Type, rec.ID = clog2.RecCargoEvt, int32(rng.Intn(9))
				rec.SetCargo(fmt.Sprintf("line: %d|é<&>", rng.Intn(50)))
			case 2:
				rec.Type, rec.Dir = clog2.RecMsgEvt, clog2.DirSend
				rec.Aux1, rec.Aux2, rec.Aux3 = int32(rng.Intn(ranks)), int32(rng.Intn(6)), int32(rng.Intn(4096))
			case 3:
				rec.Type, rec.Dir = clog2.RecMsgEvt, clog2.DirRecv
				rec.Aux1, rec.Aux2, rec.Aux3 = int32(rng.Intn(ranks)), int32(rng.Intn(6)), -1
			case 4:
				rec.Type, rec.Shift = clog2.RecTimeShift, rng.Float64()
			}
			ops[r] = append(ops[r], rec)
		}
	}
	return ops
}

// layOut cuts each rank's records into blocks of up to maxBlock records
// and interleaves the ranks' blocks in a random order (each rank's own
// order kept), the freedom a CLOG-2 writer has.
func layOut(rng *rand.Rand, ops map[int32][]clog2.Record, maxBlock int) []clog2.Block {
	var ranks []int32
	for r := range ops {
		ranks = append(ranks, r)
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
	rest := map[int32][]clog2.Record{}
	for _, r := range ranks {
		rest[r] = ops[r]
	}
	var blocks []clog2.Block
	for len(ranks) > 0 {
		k := rng.Intn(len(ranks))
		r := ranks[k]
		n := min(1+rng.Intn(maxBlock), len(rest[r]))
		blocks = append(blocks, clog2.Block{Rank: r, Records: rest[r][:n]})
		if rest[r] = rest[r][n:]; len(rest[r]) == 0 {
			ranks = append(ranks[:k], ranks[k+1:]...)
		}
	}
	return blocks
}

func cloneOps(ops map[int32][]clog2.Record) map[int32][]clog2.Record {
	out := map[int32][]clog2.Record{}
	for r, recs := range ops {
		out[r] = append([]clog2.Record(nil), recs...)
	}
	return out
}

// opIndex returns the record index of rank's k-th keyed op.
func opIndex(recs []clog2.Record, k int) int {
	for i := range recs {
		if recs[i].Type != clog2.RecTimeShift {
			if k == 0 {
				return i
			}
			k--
		}
	}
	return -1
}

func TestDiffMatchesOracleOnGoldenLogs(t *testing.T) {
	names := []string{"lab2", "collisions", "thumbnail"}
	logs := map[string][]byte{}
	for _, n := range names {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", n+".clog2"))
		if err != nil {
			t.Fatal(err)
		}
		logs[n] = data
	}
	for _, a := range names {
		for _, b := range names {
			for _, ctx := range []int{0, 1, 7} {
				mustMatchOracle(t, a+" vs "+b, logs[a], logs[b], DiffOptions{Context: ctx})
			}
		}
	}
}

// Every divergence kind at every place the context window is clipped:
// inside the first and the last Context ops, on either side, at the
// default, a narrow and a wide Context, with none at all, and with one
// wider than any log.
func TestDiffMatchesOracleAtWindowEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const ranks, perRank = 3, 40
	base := genOps(rng, ranks, perRank)
	a := encodeLog(t, ranks, layOut(rng, base, 16))
	nOps := perRank
	for _, recs := range base {
		n := 0
		for opIndex(recs, n) >= 0 {
			n++
		}
		nOps = min(nOps, n)
	}
	for _, ctx := range []int{0, 1, 7, -1, 1 << 30} {
		opts := DiffOptions{Context: ctx}
		mustMatchOracle(t, "identical", a, a, opts)
		for _, k := range []int{0, 1, 2, 3, 7, 8, nOps - 9, nOps - 8, nOps - 4, nOps - 3, nOps - 2, nOps - 1} {
			// One op of rank 1 changed.
			mut := cloneOps(base)
			i := opIndex(mut[1], k)
			mut[1][i] = clog2.Record{Type: clog2.RecBareEvt, Rank: 1, Time: mut[1][i].Time, ID: 777}
			mustMatchOracle(t, fmt.Sprintf("mismatch at op %d", k), a, encodeLog(t, ranks, layOut(rng, mut, 16)), opts)
			// Rank 1 cut short before that op (cut to nothing: the rank is missing).
			cut := cloneOps(base)
			cut[1] = cut[1][:opIndex(cut[1], k)]
			mustMatchOracle(t, fmt.Sprintf("truncated at op %d", k), a, encodeLog(t, ranks, layOut(rng, cut, 16)), opts)
			// Both at once, on different ranks, so First has to choose.
			i = opIndex(cut[2], k)
			cut[2][i] = clog2.Record{Type: clog2.RecBareEvt, Rank: 2, Time: cut[2][i].Time, ID: 31337}
			mustMatchOracle(t, fmt.Sprintf("two divergences at op %d", k), a, encodeLog(t, ranks, layOut(rng, cut, 16)), opts)
		}
		gone := cloneOps(base)
		delete(gone, 0)
		mustMatchOracle(t, "rank 0 missing", a, encodeLog(t, ranks, layOut(rng, gone, 16)), opts)
		onlyShifts := cloneOps(base)
		onlyShifts[2] = []clog2.Record{{Type: clog2.RecTimeShift, Rank: 2, Shift: 1}}
		mustMatchOracle(t, "rank 2 logs no op", a, encodeLog(t, ranks, layOut(rng, onlyShifts, 16)), opts)
	}
}

// The same ops with the blocks cut differently and written in a different
// rank order on each side, down to one side writing every rank whole, in
// reverse: a rank's ops are the same whatever the layout.
func TestDiffMatchesOracleAcrossBlockLayouts(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ranks := 1 + rng.Intn(5)
		base := genOps(rng, ranks, 1+rng.Intn(120))
		other := cloneOps(base)
		for m := rng.Intn(4); m > 0; m-- {
			r := int32(rng.Intn(ranks))
			if len(other[r]) == 0 {
				continue
			}
			switch i := rng.Intn(len(other[r])); rng.Intn(4) {
			case 0:
				other[r][i].Aux3++ // a keyed field of a message, or nothing at all
			case 1:
				other[r][i] = clog2.Record{Type: clog2.RecBareEvt, Rank: r, Time: other[r][i].Time, ID: 999}
			case 2:
				other[r] = other[r][:i]
			case 3:
				other[r] = append(other[r], clog2.Record{Type: clog2.RecBareEvt, Rank: r, Time: 1, ID: 5}) // after every op genOps stamps
			}
		}
		a := encodeLog(t, ranks, layOut(rng, base, 1+rng.Intn(40)))
		b := encodeLog(t, ranks, layOut(rng, other, 1+rng.Intn(40)))
		opts := DiffOptions{Context: []int{0, 1, 2, 7}[rng.Intn(4)]}
		mustMatchOracle(t, fmt.Sprintf("seed %d", seed), a, b, opts)

		var whole []clog2.Block
		for r := int32(ranks) - 1; r >= 0; r-- {
			whole = append(whole, clog2.Block{Rank: r, Records: other[r]})
		}
		mustMatchOracle(t, fmt.Sprintf("seed %d, ranks whole and reversed", seed), a, encodeLog(t, ranks, whole), opts)
	}
}

// A log damaged on either side is an error naming that log, as before.
func TestDiffMatchesOracleOnDamagedLogs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	good := encodeLog(t, 2, layOut(rng, genOps(rng, 2, 30), 8))
	table, err := clog2.ReadTable(bytes.NewReader(good), int64(len(good)))
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"garbage":   []byte("garbage"),
		"empty":     nil,
		"torn":      good[:len(good)/2],
		"no endlog": good[:table.LogSize()-1],
	} {
		mustMatchOracle(t, name, good, bad, DiffOptions{})
		for i, pair := range [][2][]byte{{bad, good}, {good, bad}} {
			_, werr := oracleDiffBytes(pair[0], pair[1], "left", "right", DiffOptions{})
			_, gerr := DiffBytes(pair[0], pair[1], "left", "right", DiffOptions{})
			if werr == nil || gerr == nil || gerr.Error() != werr.Error() {
				t.Errorf("%s on side %d: error %v, oracle's %v", name, i, gerr, werr)
			}
		}
	}
}

// coldPools empties clog2's buffer pools and their victim caches (two
// collections), so that a diff allocates its block buffers whether or not
// the diff before it handed them back: with them warm, what a diff
// allocates is its two block tables alone, which grow with the blocks.
func coldPools() {
	runtime.GC()
	runtime.GC()
}

// The diff's memory follows the ranks and the skew between the two block
// layouts, not the number of records: eight times the ops, less than one
// and a half times the allocation (the string diff: eight times).
func TestDiffAllocationDoesNotGrowWithTheLog(t *testing.T) {
	synth := func(ops int) []byte {
		const ranks, perBlock = 8, 512
		var blocks []clog2.Block
		for n, rank := 0, int32(0); n < ops; n, rank = n+perBlock, (rank+1)%ranks {
			recs := make([]clog2.Record, perBlock)
			for i := range recs {
				recs[i] = clog2.Record{Type: clog2.RecCargoEvt, Rank: rank, Time: float64(n+i) * 1e-6, ID: int32(2 + i%2)}
				recs[i].SetCargo(fmt.Sprintf("line: gen.go:%d", i%97))
			}
			blocks = append(blocks, clog2.Block{Rank: rank, Records: recs})
		}
		return encodeLog(t, ranks, blocks)
	}
	allocated := func(log []byte) uint64 {
		coldPools()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		rep, err := DiffBytes(log, log, "a", "b", DiffOptions{})
		if err != nil || !rep.Identical {
			t.Fatalf("self-diff: %v, identical %v", err, rep != nil && rep.Identical)
		}
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	small, large := allocated(synth(50_000)), allocated(synth(400_000))
	t.Logf("50k ops: %d B allocated, 400k ops: %d B", small, large)
	if float64(large) >= 1.5*float64(small) {
		t.Errorf("allocation grew %.2fx from 50k to 400k ops, want < 1.5x", float64(large)/float64(small))
	}
}

// The diff reads each log rank by rank through its block table, so how
// either log lays its ranks out does not reach its memory: a log whose
// ranks are interleaved block by block against the same ops written one
// whole rank at a time, in reverse rank order, allocates under one and a
// half times as much at eight times the ops (aligning the two streams
// held one side's other ranks until the other side reached them: 7.4 MB
// at 50k ops, 65 MB at 400k).
func TestDiffAllocationDoesNotGrowAcrossLayouts(t *testing.T) {
	layouts := func(ops int) (interleaved, whole []byte) {
		const ranks, perBlock = 8, 512
		var blocks []clog2.Block
		perRank := map[int32][]clog2.Record{}
		for n, rank := 0, int32(0); n < ops; n, rank = n+perBlock, (rank+1)%ranks {
			recs := make([]clog2.Record, perBlock)
			for i := range recs {
				recs[i] = clog2.Record{Type: clog2.RecCargoEvt, Rank: rank, Time: float64(n+i) * 1e-6, ID: int32(2 + i%2)}
				recs[i].SetCargo(fmt.Sprintf("line: gen.go:%d", i%97))
			}
			blocks = append(blocks, clog2.Block{Rank: rank, Records: recs})
			perRank[rank] = append(perRank[rank], recs...)
		}
		var reversed []clog2.Block
		for rank := int32(ranks) - 1; rank >= 0; rank-- {
			for recs := perRank[rank]; len(recs) > 0; {
				n := min(len(recs), clog2.MaxBlockRecords)
				reversed = append(reversed, clog2.Block{Rank: rank, Records: recs[:n]})
				recs = recs[n:]
			}
		}
		return encodeLog(t, ranks, blocks), encodeLog(t, ranks, reversed)
	}
	allocated := func(ops int) uint64 {
		a, b := layouts(ops)
		coldPools()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		rep, err := DiffBytes(a, b, "a", "b", DiffOptions{})
		if err != nil || !rep.Identical {
			t.Fatalf("%d ops in two layouts: %v, identical %v", ops, err, rep != nil && rep.Identical)
		}
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	small, large := allocated(50_000), allocated(400_000)
	t.Logf("50k ops: %d B allocated, 400k ops: %d B", small, large)
	if float64(large) >= 1.5*float64(small) {
		t.Errorf("allocation grew %.2fx from 50k to 400k ops, want < 1.5x", float64(large)/float64(small))
	}
}

// lieAbout returns log with a block table that validates but says what
// lie makes of the true one.
func lieAbout(t *testing.T, log []byte, lie func(*clog2.Table)) []byte {
	t.Helper()
	table, err := clog2.ReadTable(bytes.NewReader(log), int64(len(log)))
	if err != nil {
		t.Fatal(err)
	}
	lie(table)
	out := clog2.AppendTable(append([]byte(nil), log[:table.LogSize()]...), table)
	if _, err := clog2.ReadTable(bytes.NewReader(out), int64(len(out))); err != nil {
		t.Fatalf("the doctored table does not validate: %v", err)
	}
	return out
}

// The diff walks the ranks of either header, so logs that declare
// different rank counts diff as the oracle's rank sets say; and a table
// that validates but lies about a block's rank is caught by the block it
// lies about, or by the rank no walk reaches, and the log's scan is read
// instead.
func TestDiffMatchesOracleAcrossRankCountsAndLyingTables(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ops := genOps(rng, 3, 60)
	three := encodeLog(t, 3, layOut(rng, ops, 8))
	five := encodeLog(t, 5, layOut(rng, ops, 8))
	fewer := cloneOps(ops)
	delete(fewer, 2)
	for _, recs := range fewer {
		for i := range recs {
			recs[i].Aux1 %= 2 // a message's peer, in a two-rank log
		}
	}
	two := encodeLog(t, 2, layOut(rng, fewer, 8))
	// The first blocks of ranks 1 and 2 trade ranks; or rank 2's first
	// block claims a rank only a five-rank log has, or one neither has.
	relabel := func(swap bool, rank int32) func(*clog2.Table) {
		return func(table *clog2.Table) {
			first := map[int32]int{}
			for i := len(table.Blocks) - 1; i >= 0; i-- {
				first[table.Blocks[i].Rank] = i
			}
			if swap {
				table.Blocks[first[1]].Rank = 2
			}
			table.Blocks[first[2]].Rank = rank
		}
	}
	logs := map[string][]byte{
		"three ranks": three, "five ranks": five, "two ranks": two,
		"swapped ranks":       lieAbout(t, three, relabel(true, 1)),
		"a rank of five":      lieAbout(t, three, relabel(false, 4)),
		"a rank of neither":   lieAbout(t, three, relabel(false, 7)),
		"two ranks, lying":    lieAbout(t, two, relabel(false, 0)),
		"five ranks, swapped": lieAbout(t, five, relabel(true, 1)),
	}
	for na, a := range logs {
		for nb, b := range logs {
			for _, ctx := range []int{0, 2} {
				mustMatchOracle(t, na+" vs "+nb, a, b, DiffOptions{Context: ctx})
			}
		}
	}
}
