package idx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/clog2"
)

// writeLog writes a four-rank log with two blocks per rank, defs up
// front, and enough variety (messages on several channels, bare and
// cargo events, a timeshift) to exercise every fence.
func writeLog(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.clog2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := clog2.NewWriter(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	defs := []clog2.Record{
		{Type: clog2.RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Color: "red", Name: "A"},
		{Type: clog2.RecEventDef, ID: 7, Color: "blue", Name: "E"},
		{Type: clog2.RecConstDef, ID: 8, Aux1: 42, Name: "K"},
	}
	for rank := int32(0); rank < 4; rank++ {
		base := float64(rank)
		first := []clog2.Record{
			{Type: clog2.RecBareEvt, Rank: rank, Time: base + 0.1, ID: 2},
			{Type: clog2.RecMsgEvt, Rank: rank, Time: base + 0.2, Dir: clog2.DirSend,
				Aux1: (rank + 1) % 4, Aux2: 10 + rank, Aux3: 100},
			{Type: clog2.RecBareEvt, Rank: rank, Time: base + 0.3, ID: 3},
		}
		if rank == 0 {
			first = append(defs, first...)
		}
		if err := w.WriteBlock(rank, first); err != nil {
			t.Fatal(err)
		}
		second := []clog2.Record{
			{Type: clog2.RecTimeShift, Rank: rank, Time: base + 0.4, Shift: 1e-6},
			{Type: clog2.RecMsgEvt, Rank: rank, Time: base + 0.5, Dir: clog2.DirRecv,
				Aux1: (rank + 3) % 4, Aux2: 10 + (rank+3)%4, Aux3: 100},
			{Type: clog2.RecBareEvt, Rank: rank, Time: base + 0.6, ID: 7},
		}
		if err := w.WriteBlock(rank, second); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func mustBuild(t *testing.T, path string) *Index {
	t.Helper()
	ix, err := BuildFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// writeLongLog writes a two-rank log whose first block (rank 0: two
// definitions, then events) holds 10 000 records, more than two runs of a
// scan, and whose second is short.
func writeLongLog(t *testing.T) string {
	t.Helper()
	long := []clog2.Record{
		{Type: clog2.RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Color: "red", Name: "A"},
		{Type: clog2.RecEventDef, ID: 7, Color: "blue", Name: "E"},
	}
	for i := 0; len(long) < 10_000; i++ {
		long = append(long, clog2.Record{Type: clog2.RecBareEvt, Time: float64(i) * 1e-3, ID: int32(2 + i%2)})
	}
	short := []clog2.Record{{Type: clog2.RecBareEvt, Rank: 1, Time: 0.5, ID: 7}}
	log, err := clog2.AppendBlock(clog2.AppendHeader(nil, 2), 0, long)
	if err == nil {
		log, err = clog2.AppendBlock(log, 1, short)
	}
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "long.clog2")
	if err := os.WriteFile(path, append(log, byte(clog2.RecEndLog)), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// longBlockLies are the ways the entry of writeLongLog's first block can
// disagree with the block while every sum Decode checks still adds up.
var longBlockLies = []struct {
	name string
	lie  func(ix *Index)
	runs int // runs of the block a scan delivers before it finds out
}{
	{"one record fewer", func(ix *Index) { ix.Blocks[0].Records--; ix.TotalRecords-- }, 2},
	{"one record more", func(ix *Index) { ix.Blocks[0].Records++; ix.TotalRecords++ }, 2},
	{"wrong rank", func(ix *Index) { ix.Blocks[0].Rank = 1 }, 0},
}

// restamp recomputes the CRC trailer after a mutation, so the result
// passes the checksum and exercises the structural validation instead.
func restamp(data []byte) []byte {
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(body))
	return data
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	path := writeLog(t)
	ix := mustBuild(t, path)
	ix.SourceSize, ix.SourceModNanos = 12345, 67890
	back, err := Decode(Encode(ix))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ix, back) {
		t.Errorf("round trip changed the index:\n got %+v\nwant %+v", back, ix)
	}
	if ix.NumRanks != 4 || len(ix.Blocks) != 8 {
		t.Errorf("built %d ranks, %d blocks; want 4, 8", ix.NumRanks, len(ix.Blocks))
	}
	if int(ix.TotalRecords) != 3+8*3 {
		t.Errorf("TotalRecords = %d, want %d", ix.TotalRecords, 3+8*3)
	}
}

func TestBuilderCountsAndFences(t *testing.T) {
	path := writeLog(t)
	ix := mustBuild(t, path)
	b0 := ix.Blocks[0]
	if b0.Rank != 0 || b0.Records != 6 || b0.Defs != 3 || b0.Msgs != 1 {
		t.Errorf("rank-0 first block meta = %+v", b0)
	}
	if b0.TMin != 0.1 || b0.TMax != 0.3 {
		t.Errorf("rank-0 time fence = [%v, %v], want [0.1, 0.3] (defs excluded)", b0.TMin, b0.TMax)
	}
	if b0.ChanMin != 10 || b0.ChanMax != 10 {
		t.Errorf("rank-0 chan fence = [%d, %d], want [10, 10]", b0.ChanMin, b0.ChanMax)
	}
}

// The pooled-builder path: Reset must produce the same index as a fresh
// builder on the same input.
func TestBuilderReset(t *testing.T) {
	path := writeLog(t)
	first := mustBuild(t, path)

	b := NewBuilder(1)
	for round := 0; round < 3; round++ {
		b.Reset(4)
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		br, err := clog2.NewBlockReader(f)
		if err != nil {
			t.Fatal(err)
		}
		var buf []clog2.Record
		for {
			blk, err := br.NextReuse(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			b.AddRun(br, blk, 0)
			buf = blk.Records[:0]
		}
		f.Close()
		if got := b.Index(); !bytes.Equal(Encode(got), Encode(first)) {
			t.Errorf("round %d: reused builder produced a different index:\n got %+v\nwant %+v", round, got, first)
		}
	}
}

// Every filtered answer through the index must equal the full scan, and
// narrow queries must actually prune blocks (the point of the sidecar).
func TestSelectScanEqualsFullScan(t *testing.T) {
	path := writeLog(t)
	ix := mustBuild(t, path)

	// The consumer contract: a scan that wants definitions selects with
	// IncludeDefs; one that does not must also drop them record-wise
	// (Matches alone always passes defs through the time window).
	matches := func(q Query, r *clog2.Record) bool {
		if !q.IncludeDefs && isDef(r.Type) {
			return false
		}
		return q.Matches(r)
	}

	fullScan := func(q Query) []clog2.Record {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		br, err := clog2.NewBlockReader(f)
		if err != nil {
			t.Fatal(err)
		}
		var out []clog2.Record
		for {
			b, err := br.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := range b.Records {
				if matches(q, &b.Records[i]) {
					out = append(out, b.Records[i])
				}
			}
		}
		return out
	}

	narrow := func(mod func(*Query)) Query {
		q := MatchAll()
		q.IncludeDefs = true
		mod(&q)
		return q
	}
	cases := []struct {
		name      string
		q         Query
		wantPrune bool
	}{
		{"all", narrow(func(q *Query) {}), false},
		{"window", narrow(func(q *Query) { q.T0, q.T1 = 1.0, 1.9 }), true},
		{"empty-window", narrow(func(q *Query) { q.T0, q.T1 = 99, 100 }), true},
		{"rank", narrow(func(q *Query) { q.Rank = 2 }), true},
		{"chan", narrow(func(q *Query) { q.Chan = 11 }), true},
		{"rank+window", narrow(func(q *Query) { q.Rank = 3; q.T0, q.T1 = 3.0, 3.35 }), true},
		{"no-defs-window", func() Query {
			q := MatchAll()
			q.T0, q.T1 = 2.0, 2.9
			return q
		}(), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sel := ix.Select(tc.q)
			if tc.wantPrune && len(sel) >= len(ix.Blocks) {
				t.Errorf("query selected all %d blocks; fences pruned nothing", len(sel))
			}
			var got []clog2.Record
			err := ScanFile(path, ix, sel, func(b clog2.Block) error {
				for i := range b.Records {
					if matches(tc.q, &b.Records[i]) {
						got = append(got, b.Records[i])
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			want := fullScan(tc.q)
			if len(got) != len(want) {
				t.Fatalf("indexed scan found %d record(s), full scan %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("record %d differs: indexed %+v, scanned %+v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestQueryMatchesDefs(t *testing.T) {
	q := Query{T0: 5, T1: 6, Rank: 1, Chan: -1}
	def := clog2.Record{Type: clog2.RecStateDef, Rank: 1, Time: 0}
	if !q.Matches(&def) {
		t.Error("a definition must pass the time window")
	}
	def.Rank = 0
	if q.Matches(&def) {
		t.Error("a definition must still honour the rank filter")
	}
	evt := clog2.Record{Type: clog2.RecBareEvt, Rank: 1, Time: 0}
	if q.Matches(&evt) {
		t.Error("an out-of-window event matched")
	}
	q.Chan = 3
	msg := clog2.Record{Type: clog2.RecMsgEvt, Rank: 1, Time: 5.5, Aux2: 3}
	if !q.Matches(&msg) {
		t.Error("an in-window message on the channel did not match")
	}
	msg.Aux2 = 4
	if q.Matches(&msg) {
		t.Error("a message on another channel matched")
	}
}

func TestLoadDegradations(t *testing.T) {
	path := writeLog(t)
	side := SidecarPath(path)

	// Missing sidecar.
	if _, err := Load(path); !errors.Is(err, ErrNoIndex) {
		t.Errorf("missing sidecar: err = %v, want ErrNoIndex", err)
	}
	if got := Probe(path); got != StatusNone {
		t.Errorf("Probe = %v, want none", got)
	}
	if got := ProbeHeader(path); got != StatusNone {
		t.Errorf("ProbeHeader = %v, want none", got)
	}

	// Valid sidecar.
	ix := mustBuild(t, path)
	if err := WriteFileFor(path, ix); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("valid sidecar failed to load: %v", err)
	}
	if got := Probe(path); got != StatusOK {
		t.Errorf("Probe = %v, want ok", got)
	}
	if got := ProbeHeader(path); got != StatusOK {
		t.Errorf("ProbeHeader = %v, want ok", got)
	}

	// Unstamped sidecar (written with Write, not WriteFileFor): always stale.
	raw, err := os.ReadFile(side)
	if err != nil {
		t.Fatal(err)
	}
	fresh := mustBuild(t, path)
	if err := func() error {
		f, err := os.Create(side)
		if err != nil {
			return err
		}
		defer f.Close()
		return Write(f, fresh)
	}(); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrStale) {
		t.Errorf("unstamped sidecar: err = %v, want ErrStale", err)
	}
	if err := os.WriteFile(side, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Stale: the log grew after indexing.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Load(path); !errors.Is(err, ErrStale) {
		t.Errorf("regrown log: err = %v, want ErrStale", err)
	}
	if got := Probe(path); got != StatusStale {
		t.Errorf("Probe = %v, want stale", got)
	}
	if got := ProbeHeader(path); got != StatusStale {
		t.Errorf("ProbeHeader = %v, want stale", got)
	}

	// Corrupt: flip one body byte (CRC catches it).
	if err := WriteFileFor(path, mustBuild(t, path)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(side)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(side, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("flipped byte: err = %v, want ErrCorrupt", err)
	}
	if got := Probe(path); got != StatusCorrupt {
		t.Errorf("Probe = %v, want corrupt", got)
	}
	// ...but ProbeHeader cannot see body corruption: the header is intact.
	if got := ProbeHeader(path); got != StatusOK {
		t.Errorf("ProbeHeader = %v, want ok (header-only probe)", got)
	}

	// Truncated at every prefix length: never panics, never loads.
	data[len(data)/2] ^= 0xff // restore
	for n := 0; n < len(data); n += 7 {
		if err := os.WriteFile(side, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Fatalf("truncation to %d bytes loaded successfully", n)
		}
	}
}

// An index that passes every structural check but lies about the file
// must be caught by ScanFile's per-block verification.
func TestScanFileDetectsLyingIndex(t *testing.T) {
	scan := func(path string, ix *Index) (runs int, err error) {
		t.Helper()
		if _, err := Decode(Encode(ix)); err != nil {
			t.Fatalf("mutant failed structural validation (wanted it to pass): %v", err)
		}
		err = ScanFile(path, ix, ix.Select(MatchAll()), func(clog2.Block) error { runs++; return nil })
		return runs, err
	}
	path := writeLog(t)
	ix := mustBuild(t, path)
	// Swap the rank labels of two blocks; offsets, counts and sums all
	// stay plausible, so Decode accepts the mutant.
	ix.Blocks[2].Rank, ix.Blocks[4].Rank = ix.Blocks[4].Rank, ix.Blocks[2].Rank
	if _, err := scan(path, ix); !errors.Is(err, ErrCorrupt) {
		t.Errorf("lying index: err = %v, want ErrCorrupt", err)
	}
	// A block of several runs: a lie about its length is found on its last
	// run, after the earlier ones were handed over.
	path = writeLongLog(t)
	for _, c := range longBlockLies {
		ix := mustBuild(t, path)
		c.lie(ix)
		if runs, err := scan(path, ix); !errors.Is(err, ErrCorrupt) || runs != c.runs {
			t.Errorf("%s: err = %v after %d runs, want ErrCorrupt after %d", c.name, err, runs, c.runs)
		}
	}
	if runs, err := scan(path, mustBuild(t, path)); err != nil || runs != 4 {
		t.Errorf("honest index: err = %v after %d runs, want nil after 4", err, runs)
	}
}

func TestScanFileEmptySelection(t *testing.T) {
	path := writeLog(t)
	ix := mustBuild(t, path)
	called := false
	if err := ScanFile(path, ix, nil, func(clog2.Block) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("empty selection visited a block")
	}
	if err := ScanFile(path, ix, []int{len(ix.Blocks)}, func(clog2.Block) error { return nil }); err == nil {
		t.Error("out-of-range selection did not error")
	}
}

func TestDecodeHostile(t *testing.T) {
	path := writeLog(t)
	ix := mustBuild(t, path)
	valid := Encode(ix)

	mutate := func(f func(d []byte)) []byte {
		d := append([]byte(nil), valid...)
		f(d)
		return restamp(d)
	}
	le32at := func(d []byte, off int, v uint32) { binary.LittleEndian.PutUint32(d[off:], v) }
	le64at := func(d []byte, off int, v uint64) { binary.LittleEndian.PutUint64(d[off:], v) }

	const (
		offVersion  = len(Magic)
		offNumRanks = len(Magic) + 4 + 8 + 8
		offTotal    = offNumRanks + 4
		offNBlocks  = offTotal + 8
		offBlock0   = offNBlocks + 4
	)
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", valid[:10]},
		{"bad-magic", mutate(func(d []byte) { d[0] = 'X' })},
		{"bad-version", mutate(func(d []byte) { le32at(d, offVersion, 99) })},
		{"zero-ranks", mutate(func(d []byte) { le32at(d, offNumRanks, 0) })},
		{"absurd-ranks", mutate(func(d []byte) { le32at(d, offNumRanks, 1<<21) })},
		{"huge-block-table", mutate(func(d []byte) { le32at(d, offNBlocks, 1<<30) })},
		{"offset-before-header", mutate(func(d []byte) { le64at(d, offBlock0, 0) })},
		{"negative-length", mutate(func(d []byte) { le64at(d, offBlock0+8, ^uint64(0)) })},
		{"overlapping-blocks", mutate(func(d []byte) {
			// Make block 1 start inside block 0.
			b0off := binary.LittleEndian.Uint64(d[offBlock0:])
			le64at(d, offBlock0+blockEntrySize, b0off+1)
		})},
		{"defs-exceed-records", mutate(func(d []byte) { le32at(d, offBlock0+20, 1<<20) })},
		{"sum-mismatch", mutate(func(d []byte) { le64at(d, offTotal, 1) })},
		{"trailing-bytes", restamp(append(append([]byte(nil), valid[:len(valid)-4]...), 0, 0, 0, 0, 0, 0, 0, 0))},
		{"crc-mismatch", func() []byte {
			d := append([]byte(nil), valid...)
			d[len(d)-1] ^= 0xff
			return d
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Decode(tc.data); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Decode = %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestReadCapsSidecarSize(t *testing.T) {
	huge := io.LimitReader(zeros{}, maxSidecarSize+2)
	if _, err := Read(huge); !errors.Is(err, ErrCorrupt) {
		t.Errorf("oversized sidecar: err = %v, want ErrCorrupt", err)
	}
}

type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

// Load must reject an index whose block table extends past the log even
// when the generation stamp matches (a hand-crafted hostile pairing).
func TestLoadRejectsBlockTablePastEOF(t *testing.T) {
	path := writeLog(t)
	ix := mustBuild(t, path)
	last := &ix.Blocks[len(ix.Blocks)-1]
	last.Length += 1 << 20
	// Bypass WriteFileFor's stamping with the true generation plus the lie.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	ix.SourceSize, ix.SourceModNanos = Generation(info)
	f, err := os.Create(SidecarPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(f, ix); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Load(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("block table past EOF: err = %v, want ErrCorrupt", err)
	}
}

func TestSidecarPath(t *testing.T) {
	if got := SidecarPath("a/b/run.clog2"); got != "a/b/run.clog2.idx" {
		t.Errorf("SidecarPath = %q", got)
	}
}

func TestTimeFenceExcludesDefs(t *testing.T) {
	// A block holding only definitions must not fence any time range and
	// must never satisfy a pure time query, but IncludeDefs selects it.
	path := filepath.Join(t.TempDir(), "defs.clog2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := clog2.NewWriter(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBlock(0, []clog2.Record{
		{Type: clog2.RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Name: "A", Color: "red"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	ix := mustBuild(t, path)
	if len(ix.Blocks) != 1 {
		t.Fatalf("blocks = %+v", ix.Blocks)
	}
	if b := ix.Blocks[0]; !(b.TMin > b.TMax) {
		t.Errorf("defs-only block has a live time fence [%v, %v]", b.TMin, b.TMax)
	}
	q := MatchAll()
	if sel := ix.Select(q); len(sel) != 0 {
		t.Errorf("defs-only block selected by a pure event query: %v", sel)
	}
	q.IncludeDefs = true
	if sel := ix.Select(q); len(sel) != 1 {
		t.Errorf("IncludeDefs did not select the defs block: %v", sel)
	}
}

func TestWriteFileForStampsGeneration(t *testing.T) {
	path := writeLog(t)
	if err := WriteFileFor(path, mustBuild(t, path)); err != nil {
		t.Fatal(err)
	}
	ix, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	size, mod := Generation(info)
	if ix.SourceSize != size || ix.SourceModNanos != mod {
		t.Errorf("generation = (%d, %d), want (%d, %d)", ix.SourceSize, ix.SourceModNanos, size, mod)
	}
	if math.IsNaN(ix.Blocks[0].TMin) {
		t.Error("fence decoded as NaN")
	}
}

// Walk is the one place that chooses between the index and the scan:
// for every state a sidecar can be in, the Status it reports, the blocks
// it visits and how often it starts the consumer over are pinned here.
func TestWalk(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "thumbnail.clog2"))
	if err != nil {
		t.Fatal(err)
	}
	type visit struct {
		rank    int32
		records int
	}
	flip := func(t *testing.T, path string) {
		side := SidecarPath(path)
		data, err := os.ReadFile(side)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(side, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name     string
		sabotage func(t *testing.T, path string, sel []int)
		want     Status
		begins   int
	}{
		{"none", func(t *testing.T, path string, _ []int) { os.Remove(SidecarPath(path)) }, StatusNone, 1},
		{"ok", func(*testing.T, string, []int) {}, StatusOK, 1},
		{"stale", func(t *testing.T, path string, _ []int) {
			// The log is touched after indexing: same bytes, later mtime.
			later := time.Now().Add(time.Hour)
			if err := os.Chtimes(path, later, later); err != nil {
				t.Fatal(err)
			}
		}, StatusStale, 1},
		{"corrupt", func(t *testing.T, path string, _ []int) { flip(t, path) }, StatusCorrupt, 1},
		// What CLOGIDX-01 was: the same head and block table, then a
		// channel and an etype table (empty here), under a valid CRC.
		{"sidecar of the previous version", func(t *testing.T, path string, _ []int) {
			side := SidecarPath(path)
			data, err := os.ReadFile(side)
			if err != nil {
				t.Fatal(err)
			}
			old := append([]byte("CLOGIDX-01\x01\x00\x00\x00"), data[len(Magic)+4:len(data)-4]...)
			old = restamp(append(old, make([]byte, 4+4+4)...))
			if err := os.WriteFile(side, old, 0o644); err != nil {
				t.Fatal(err)
			}
			if got := ProbeHeader(path); got != StatusCorrupt {
				t.Errorf("ProbeHeader = %v, want corrupt", got)
			}
		}, StatusCorrupt, 1},
		// Valid CRC, valid sums, but the last block the query selects
		// holds one record fewer than its entry says: Load accepts it and
		// ScanFile catches it after the earlier blocks were delivered.
		{"lying", func(t *testing.T, path string, sel []int) {
			ix, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			ix.Blocks[sel[len(sel)-1]].Records++
			ix.TotalRecords++
			if err := WriteFileFor(path, ix); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(path); err != nil {
				t.Fatalf("lying sidecar should pass validation, got %v", err)
			}
		}, StatusCorrupt, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "thumbnail.clog2")
			if err := os.WriteFile(path, golden, 0o644); err != nil {
				t.Fatal(err)
			}
			ix, err := Rebuild(path)
			if err != nil {
				t.Fatal(err)
			}
			// The defs and the last rank: a selection that skips blocks
			// and still spans more than one.
			q := MatchAll()
			q.Rank, q.IncludeDefs = int32(ix.NumRanks-1), true
			sel := ix.Select(q)
			if len(sel) < 2 || len(sel) >= len(ix.Blocks) {
				t.Fatalf("query selects %d of %d blocks; the test needs a proper subset of two or more", len(sel), len(ix.Blocks))
			}
			var all, selected []visit
			for _, b := range ix.Blocks {
				all = append(all, visit{b.Rank, int(b.Records)})
			}
			for _, i := range sel {
				selected = append(selected, all[i])
			}
			tc.sabotage(t, path, sel)

			var attempts [][]visit
			st, err := Walk(path, q, func(numRanks int) func(clog2.Block) error {
				if numRanks != ix.NumRanks {
					t.Errorf("begin(%d), the log has %d ranks", numRanks, ix.NumRanks)
				}
				attempts = append(attempts, nil)
				return func(b clog2.Block) error {
					last := &attempts[len(attempts)-1]
					*last = append(*last, visit{b.Rank, len(b.Records)})
					return nil
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if st != tc.want {
				t.Errorf("Status = %v, want %v", st, tc.want)
			}
			if len(attempts) != tc.begins {
				t.Fatalf("begin called %d time(s), want %d", len(attempts), tc.begins)
			}
			want := all
			if tc.want == StatusOK {
				want = selected
			}
			if got := attempts[len(attempts)-1]; !reflect.DeepEqual(got, want) {
				t.Errorf("the answer rests on blocks %v, want %v", got, want)
			}
			if tc.begins == 2 {
				if got := attempts[0]; !reflect.DeepEqual(got, selected[:len(selected)-1]) {
					t.Errorf("abandoned attempt saw %v, want %v (everything before the block that lies)", got, selected[:len(selected)-1])
				}
			}
		})
	}
}

// A sidecar that lies about a block of several runs is caught after some
// of them were delivered: Walk starts the consumer over, and what the
// second begin collects is what the plain scan reads.
func TestWalkLyingLongBlock(t *testing.T) {
	for _, c := range longBlockLies {
		path := writeLongLog(t)
		ix, err := Rebuild(path)
		if err != nil {
			t.Fatal(err)
		}
		c.lie(ix)
		if err := WriteFileFor(path, ix); err != nil {
			t.Fatal(err)
		}
		var attempts [][]clog2.Record
		collect := func(int) func(clog2.Block) error {
			attempts = append(attempts, nil)
			return func(b clog2.Block) error {
				attempts[len(attempts)-1] = append(attempts[len(attempts)-1], b.Records...)
				return nil
			}
		}
		q := MatchAll()
		q.IncludeDefs = true
		st, err := Walk(path, q, collect)
		if err != nil || st != StatusCorrupt || len(attempts) != 2 {
			t.Fatalf("%s: Walk = %v, %v after %d begin(s); want corrupt, nil, 2", c.name, st, err, len(attempts))
		}
		if got := len(attempts[0]); got != c.runs*clog2.RunRecords {
			t.Errorf("%s: the abandoned attempt saw %d records, want %d runs", c.name, got, c.runs)
		}
		os.Remove(SidecarPath(path))
		if st, err := Walk(path, q, collect); err != nil || st != StatusNone {
			t.Fatalf("%s: plain scan = %v, %v", c.name, st, err)
		}
		if !reflect.DeepEqual(attempts[1], attempts[2]) {
			t.Errorf("%s: the answer rests on %d records, the plain scan on %d, or they differ", c.name, len(attempts[1]), len(attempts[2]))
		}
	}
}

// Walk reports the log's own errors, whatever the sidecar said.
func TestWalkUnreadableLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.clog2")
	if err := os.WriteFile(path, []byte("not a clog2 file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	begun := 0
	st, err := Walk(path, MatchAll(), func(int) func(clog2.Block) error {
		begun++
		return func(clog2.Block) error { return nil }
	})
	if err == nil || st != StatusNone || begun != 0 {
		t.Errorf("Walk = %v, %v after %d begin(s); want an error, none, 0", st, err, begun)
	}
	if _, err := Rebuild(path); err == nil {
		t.Error("Rebuild indexed a file that is not a log")
	}
	if _, err := os.Stat(SidecarPath(path)); err == nil {
		t.Error("Rebuild left a sidecar beside a file that is not a log")
	}
}
