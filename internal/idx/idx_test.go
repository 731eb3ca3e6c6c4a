package idx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

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

// scanFile is scan over the log at path.
func scanFile(path string, ix *Index, sel []int, q Query, fn func(clog2.Block) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return scan(f, ix, sel, q, fn)
}

func mustLoad(t *testing.T, path string) *Index {
	t.Helper()
	ix, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// withTable is the log at path with its table replaced by ix's: a table
// whose CRC holds whatever ix says. ix must keep the blocks' extents.
func withTable(t *testing.T, path string, ix *Index) []byte {
	t.Helper()
	log := readFile(t, path)[:(*clog2.Table)(ix).LogSize()]
	return clog2.AppendTable(append([]byte(nil), log...), (*clog2.Table)(ix))
}

// restamp recomputes the footer's CRC after the table in data was
// mutated, so the result passes the checksum and exercises the structural
// validation instead.
func restamp(data []byte) []byte {
	foot := data[len(data)-clog2.FooterSize:]
	at := binary.LittleEndian.Uint64(foot)
	binary.LittleEndian.PutUint32(foot[8:], crc32.ChecksumIEEE(data[at:len(data)-clog2.FooterSize]))
	return data
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
	var buf bytes.Buffer
	w, err := clog2.NewWriter(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBlock(0, long); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBlock(1, []clog2.Record{{Type: clog2.RecBareEvt, Rank: 1, Time: 0.5, ID: 7}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "long.clog2")
	writeFile(t, path, buf.Bytes())
	return path
}

// longBlockLies are the ways the entry of writeLongLog's first block can
// disagree with the block while every sum ReadTable checks still adds up.
var longBlockLies = []struct {
	name string
	lie  func(ix *Index)
	runs int // runs of the block a scan delivers before it finds out
}{
	{"one record fewer", func(ix *Index) { ix.Blocks[0].Records--; ix.TotalRecords-- }, 2},
	{"one record more", func(ix *Index) { ix.Blocks[0].Records++; ix.TotalRecords++ }, 2},
	{"wrong rank", func(ix *Index) { ix.Blocks[0].Rank = 1 }, 0},
}

// The table a Writer ends a log with reads back as what it wrote, is the
// table a scan makes, and re-encodes to its own bytes.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	path := writeLog(t)
	data := readFile(t, path)
	ix := mustLoad(t, path)
	if enc := clog2.AppendTable(nil, (*clog2.Table)(ix)); !bytes.Equal(enc, data[(*clog2.Table)(ix).LogSize():]) {
		t.Errorf("the table re-encodes to %d bytes unlike the %d it was read from", len(enc), len(data)-int((*clog2.Table)(ix).LogSize()))
	}
	scanned, err := clog2.ScanTable(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual((*clog2.Table)(ix), scanned) {
		t.Errorf("the table read differs from a scan's:\n got %+v\nwant %+v", ix, scanned)
	}
	if ix.NumRanks != 4 || len(ix.Blocks) != 8 {
		t.Errorf("read %d ranks, %d blocks; want 4, 8", ix.NumRanks, len(ix.Blocks))
	}
	if int(ix.TotalRecords) != 3+8*3 {
		t.Errorf("TotalRecords = %d, want %d", ix.TotalRecords, 3+8*3)
	}
}

// The Writer's entry and a scan's (BuildFile on a log without a table)
// count and fence the same way.
func TestBuilderCountsAndFences(t *testing.T) {
	path := writeLog(t)
	bare := filepath.Join(t.TempDir(), "bare.clog2")
	writeFile(t, bare, readFile(t, path)[:(*clog2.Table)(mustLoad(t, path)).LogSize()])
	for name, p := range map[string]string{"written": path, "scanned": bare} {
		ix, err := BuildFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b0 := ix.Blocks[0]
		if b0.Rank != 0 || b0.Records != 6 || b0.Defs != 3 || b0.Msgs != 1 {
			t.Errorf("%s: rank-0 first block meta = %+v", name, b0)
		}
		if b0.TMin != 0.1 || b0.TMax != 0.3 {
			t.Errorf("%s: rank-0 time fence = [%v, %v], want [0.1, 0.3] (defs excluded)", name, b0.TMin, b0.TMax)
		}
		if b0.ChanMin != 10 || b0.ChanMax != 10 {
			t.Errorf("%s: rank-0 chan fence = [%d, %d], want [10, 10]", name, b0.ChanMin, b0.ChanMax)
		}
	}
	if _, err := os.Stat(SidecarPath(bare)); err == nil {
		t.Error("BuildFile left a sidecar")
	}
}

// Every filtered answer through the table must equal the full scan, and
// narrow queries must actually prune blocks (the point of the table).
func TestSelectScanEqualsFullScan(t *testing.T) {
	path := writeLog(t)
	ix := mustLoad(t, path)

	// The consumer contract: a scan that wants definitions selects with
	// IncludeDefs; one that does not must also drop them record-wise
	// (Matches alone always passes defs through the time window).
	matches := func(q Query, r *clog2.Record) bool {
		if !q.IncludeDefs && r.Type.IsDef() {
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
			err := scanFile(path, ix, sel, tc.q, func(b clog2.Block) error {
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

// Every way a log can come without a usable table is one degraded status,
// with the reason in Load's error.
func TestLoadDegradations(t *testing.T) {
	path := writeLog(t)
	data := readFile(t, path)
	if _, err := Load(path); err != nil {
		t.Fatalf("a Writer's table failed to load: %v", err)
	}
	if got := Probe(path); got != StatusOK {
		t.Errorf("Probe = %v, want ok", got)
	}
	logSize := (*clog2.Table)(mustLoad(t, path)).LogSize()
	flipped := append([]byte(nil), data...)
	flipped[logSize+20] ^= 0xff
	for name, bad := range map[string][]byte{
		"written before tables": data[:logSize],
		"footer cut off":        data[:len(data)-clog2.FooterSize],
		"grown after its table": append(append([]byte(nil), data...), 0),
		"flipped table byte":    flipped,
	} {
		writeFile(t, path, bad)
		if _, err := Load(path); !errors.Is(err, clog2.ErrNoTable) {
			t.Errorf("%s: err = %v, want ErrNoTable", name, err)
		}
		if got := Probe(path); got != StatusDegraded {
			t.Errorf("%s: Probe = %v, want degraded", name, got)
		}
	}
	// Cut anywhere in its table or footer: never panics, never loads.
	for n := logSize; n < int64(len(data)); n++ {
		writeFile(t, path, data[:n])
		if _, err := Load(path); !errors.Is(err, clog2.ErrNoTable) {
			t.Fatalf("a cut to %d bytes: err = %v, want ErrNoTable", n, err)
		}
	}
	if _, err := Load(filepath.Join(t.TempDir(), "absent.clog2")); err == nil || errors.Is(err, clog2.ErrNoTable) {
		t.Errorf("a missing file: err = %v, want the open error", err)
	}
}

// validates asserts that the log at path with ix as its table passes
// ReadTable, and writes it there.
func validates(t *testing.T, path string, ix *Index) {
	t.Helper()
	data := withTable(t, path, ix)
	if _, err := clog2.ReadTable(bytes.NewReader(data), int64(len(data))); err != nil {
		t.Fatalf("mutant failed validation (wanted it to pass): %v", err)
	}
	writeFile(t, path, data)
}

// A table that passes every structural check but lies about the file
// must be caught by scan's per-block verification.
func TestScanFileDetectsLyingIndex(t *testing.T) {
	scan := func(path string, ix *Index) (runs int, err error) {
		t.Helper()
		validates(t, path, ix)
		err = scanFile(path, ix, ix.Select(MatchAll()), MatchAll(), func(clog2.Block) error { runs++; return nil })
		return runs, err
	}
	path := writeLog(t)
	ix := mustLoad(t, path)
	// Swap the rank labels of two blocks; offsets, counts and sums all
	// stay plausible, so ReadTable accepts the mutant.
	ix.Blocks[2].Rank, ix.Blocks[4].Rank = ix.Blocks[4].Rank, ix.Blocks[2].Rank
	if _, err := scan(path, ix); !errors.Is(err, ErrCorrupt) {
		t.Errorf("lying table: err = %v, want ErrCorrupt", err)
	}
	// A block of several runs: a lie about its length is found on its last
	// run, after the earlier ones were handed over.
	path = writeLongLog(t)
	for _, c := range longBlockLies {
		ix := mustLoad(t, writeLongLog(t))
		c.lie(ix)
		if runs, err := scan(path, ix); !errors.Is(err, ErrCorrupt) || runs != c.runs {
			t.Errorf("%s: err = %v after %d runs, want ErrCorrupt after %d", c.name, err, runs, c.runs)
		}
	}
	if runs, err := scan(path, mustLoad(t, writeLongLog(t))); err != nil || runs != 4 {
		t.Errorf("honest table: err = %v after %d runs, want nil after 4", err, runs)
	}
}

func TestScanFileEmptySelection(t *testing.T) {
	path := writeLog(t)
	ix := mustLoad(t, path)
	called := false
	if err := scanFile(path, ix, nil, MatchAll(), func(clog2.Block) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("empty selection visited a block")
	}
	if err := scanFile(path, ix, []int{len(ix.Blocks)}, MatchAll(), func(clog2.Block) error { return nil }); err == nil {
		t.Error("out-of-range selection did not error")
	}
}

// ReadTable refuses every hostile table or footer with ErrNoTable. The
// mutants of the table are restamped, so that its structure is what fails.
func TestDecodeHostile(t *testing.T) {
	path := writeLog(t)
	valid := readFile(t, path)
	at := int((*clog2.Table)(mustLoad(t, path)).LogSize())
	mutate := func(restamped bool, f func(d []byte)) []byte {
		d := append([]byte(nil), valid...)
		f(d)
		if restamped {
			restamp(d)
		}
		return d
	}
	le32at := func(d []byte, off int, v uint32) { binary.LittleEndian.PutUint32(d[off:], v) }
	le64at := func(d []byte, off int, v uint64) { binary.LittleEndian.PutUint64(d[off:], v) }

	const entry = 64
	var (
		offTotal   = at
		offNBlocks = at + 8
		offBlock0  = at + 12
		offSig     = len(valid) - len(clog2.TableMagic)
	)
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", valid[:10]},
		{"bad-magic", mutate(false, func(d []byte) { d[offSig] = 'X' })},
		{"bad-version", mutate(false, func(d []byte) { copy(d[offSig:], "CLOGTAB-99") })},
		{"zero-ranks", mutate(false, func(d []byte) { le32at(d, len(clog2.Magic), 0) })},
		{"absurd-ranks", mutate(false, func(d []byte) { le32at(d, len(clog2.Magic), 1<<21) })},
		{"huge-block-table", mutate(true, func(d []byte) { le32at(d, offNBlocks, 1<<30) })},
		{"offset-before-header", mutate(true, func(d []byte) { le64at(d, offBlock0, 0) })},
		{"negative-length", mutate(true, func(d []byte) { le64at(d, offBlock0+8, ^uint64(0)) })},
		{"overlapping-blocks", mutate(true, func(d []byte) {
			// Make block 1 start inside block 0.
			le64at(d, offBlock0+entry, binary.LittleEndian.Uint64(d[offBlock0:])+1)
		})},
		{"defs-exceed-records", mutate(true, func(d []byte) { le32at(d, offBlock0+24, 1<<20) })},
		{"sum-mismatch", mutate(true, func(d []byte) { le64at(d, offTotal, 1) })},
		{"trailing-bytes", restamp(append(append(append([]byte(nil), valid[:len(valid)-clog2.FooterSize]...), make([]byte, 8)...),
			valid[len(valid)-clog2.FooterSize:]...))},
		{"crc-mismatch", mutate(false, func(d []byte) { d[offBlock0+40] ^= 0xff })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := clog2.ReadTable(bytes.NewReader(tc.data), int64(len(tc.data))); !errors.Is(err, clog2.ErrNoTable) {
				t.Errorf("ReadTable = %v, want ErrNoTable", err)
			}
		})
	}
}

// hugeLog is a log of size bytes whose footer says its table starts just
// behind the header: only the header and the footer hold anything.
type hugeLog struct{ size int64 }

func (h hugeLog) ReadAt(p []byte, off int64) (int, error) {
	clear(p)
	if off == 0 {
		copy(p, clog2.AppendHeader(nil, 1))
	}
	if off == h.size-int64(clog2.FooterSize) {
		binary.LittleEndian.PutUint64(p, uint64(clog2.HeaderSize+1))
		copy(p[12:], clog2.TableMagic)
	}
	return len(p), nil
}

// A footer that claims a table past the 64 MiB cap is refused before any
// of it is read into memory.
func TestReadCapsSidecarSize(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := clog2.ReadTable(hugeLog{size: 65 << 20}, 65<<20)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, clog2.ErrNoTable) {
		t.Errorf("oversized table: err = %v, want ErrNoTable", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("refusing an oversized table allocated %d bytes", got)
	}
}

// ReadTable must reject a table whose last block extends past the end-log
// marker, even under a valid CRC.
func TestLoadRejectsBlockTablePastEOF(t *testing.T) {
	path := writeLog(t)
	data := readFile(t, path)
	at := int((*clog2.Table)(mustLoad(t, path)).LogSize())
	last := at + 12 + 7*64 // the eighth entry's offset field
	binary.LittleEndian.PutUint64(data[last+8:], binary.LittleEndian.Uint64(data[last+8:])+1<<20)
	writeFile(t, path, restamp(data))
	if _, err := Load(path); !errors.Is(err, clog2.ErrNoTable) {
		t.Errorf("block table past EOF: err = %v, want ErrNoTable", err)
	}
}

func TestSidecarPath(t *testing.T) {
	if got := SidecarPath("a/b/run.clog2"); got != "a/b/run.clog2.idx" {
		t.Errorf("SidecarPath = %q", got)
	}
	path := writeLog(t)
	if err := WriteFileFor(path, mustLoad(t, path)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(SidecarPath(path)); err == nil {
		t.Error("WriteFileFor wrote a sidecar")
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
	ix := mustLoad(t, path)
	if len(ix.Blocks) != 1 {
		t.Fatalf("blocks = %+v", ix.Blocks)
	}
	if b := ix.Blocks[0]; !(b.TMin > b.TMax) || math.IsNaN(b.TMin) {
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

func goldenThumbnail(t *testing.T) []byte {
	t.Helper()
	return readFile(t, filepath.Join("..", "..", "testdata", "golden", "thumbnail.clog2"))
}

type visit struct {
	rank    int32
	records int
}

// visits lists the blocks of a table as a walk over them sees them.
func visits(table *clog2.Table) []visit {
	var out []visit
	for _, b := range table.Blocks {
		out = append(out, visit{b.Rank, int(b.Records)})
	}
	return out
}

// Walk is the one place that chooses between the table and the scan: for
// every state a log's table can be in, the Status it reports, the blocks
// it visits and how often it starts the consumer over are pinned here.
func TestWalk(t *testing.T) {
	golden := goldenThumbnail(t)
	flip := func(t *testing.T, path string, at int64) {
		data := readFile(t, path)
		data[at+20] ^= 0xff
		writeFile(t, path, data)
	}
	for _, tc := range []struct {
		name     string
		sabotage func(t *testing.T, path string, ix *Index, sel []int)
		want     Status
		begins   int
	}{
		// What an older writer left: the log, and nothing behind it.
		{"none", func(t *testing.T, path string, ix *Index, _ []int) {
			writeFile(t, path, golden[:(*clog2.Table)(ix).LogSize()])
		}, StatusDegraded, 1},
		{"ok", func(*testing.T, string, *Index, []int) {}, StatusOK, 1},
		// The blocks were rewritten after the table was: the last block the
		// query selects now names rank 0 in its header, which ReadTable
		// cannot see and scan finds after the earlier blocks.
		{"stale", func(t *testing.T, path string, ix *Index, sel []int) {
			data := readFile(t, path)
			binary.LittleEndian.PutUint32(data[ix.Blocks[sel[len(sel)-1]].Offset:], 1) // rank 0, +1 on the wire
			writeFile(t, path, data)
		}, StatusDegraded, 2},
		{"corrupt", func(t *testing.T, path string, ix *Index, _ []int) {
			flip(t, path, (*clog2.Table)(ix).LogSize())
		}, StatusDegraded, 1},
		// A table of another version under a valid CRC.
		{"previous version", func(t *testing.T, path string, _ *Index, _ []int) {
			data := readFile(t, path)
			copy(data[len(data)-len(clog2.TableMagic):], "CLOGTAB-00")
			writeFile(t, path, data)
		}, StatusDegraded, 1},
		// Valid CRC, valid sums, but the last block the query selects
		// holds one record fewer than its entry says: Load accepts it and
		// scan catches it after the earlier blocks were delivered.
		{"lying", func(t *testing.T, path string, ix *Index, sel []int) {
			ix.Blocks[sel[len(sel)-1]].Records++
			ix.TotalRecords++
			validates(t, path, ix)
		}, StatusDegraded, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "thumbnail.clog2")
			writeFile(t, path, golden)
			ix := mustLoad(t, path)
			// The defs and the last rank: a selection that skips blocks
			// and still spans more than one.
			q := MatchAll()
			q.Rank, q.IncludeDefs = int32(ix.NumRanks-1), true
			sel := ix.Select(q)
			if len(sel) < 2 || len(sel) >= len(ix.Blocks) {
				t.Fatalf("query selects %d of %d blocks; the test needs a proper subset of two or more", len(sel), len(ix.Blocks))
			}
			var selected []visit
			for _, i := range sel {
				selected = append(selected, visits((*clog2.Table)(ix))[i])
			}
			tc.sabotage(t, path, mustLoad(t, path), sel)
			scanned, err := clog2.ScanTable(bytes.NewReader(readFile(t, path)))
			if err != nil {
				t.Fatal(err)
			}

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
			want := visits(scanned)
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
	t.Run("window", walkWindow)
}

// walkWindow is TestWalk's matrix for a time window: whatever state the
// table is in, the windowed walk hands over the records a full decode
// keeps under q.Matches, in order, and never a bare, cargo or message
// record stamped outside the window, which the decoder steps over. The
// window selects the definitions' block only for its definitions, its
// timed records all lie outside and are stepped over undecoded, and a
// table that lies about that block is still caught by its count.
func walkWindow(t *testing.T) {
	q := MatchAll()
	q.T0, q.T1, q.IncludeDefs = 1.0, 1.9, true
	for _, tc := range []struct {
		name     string
		sabotage func(t *testing.T, path string, ix *Index)
		want     Status
		begins   int
	}{
		{"ok", func(*testing.T, string, *Index) {}, StatusOK, 1},
		{"none", func(t *testing.T, path string, ix *Index) {
			writeFile(t, path, readFile(t, path)[:(*clog2.Table)(ix).LogSize()])
		}, StatusDegraded, 1},
		{"lying outside the window", func(t *testing.T, path string, ix *Index) {
			ix.Blocks[0].Records++
			ix.TotalRecords++
			validates(t, path, ix)
		}, StatusDegraded, 2},
		{"lying inside the window", func(t *testing.T, path string, ix *Index) {
			ix.Blocks[3].Records--
			ix.TotalRecords--
			validates(t, path, ix)
		}, StatusDegraded, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeLog(t)
			ix := mustLoad(t, path)
			if sel := ix.Select(q); !reflect.DeepEqual(sel, []int{0, 2, 3}) {
				t.Fatalf("the window selects blocks %v, the test needs the defs' block and rank 1's", sel)
			}
			if b := ix.Blocks[0]; b.TMax >= q.T0 {
				t.Fatalf("the defs' block has timed records up to %v, inside the window", b.TMax)
			}
			var want []clog2.Record
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			br, err := clog2.NewBlockReader(f)
			if err == nil {
				err = br.Each(func(b clog2.Block) error {
					for i := range b.Records {
						if q.Matches(&b.Records[i]) {
							want = append(want, b.Records[i])
						}
					}
					return nil
				})
			}
			f.Close()
			if err != nil {
				t.Fatal(err)
			}

			tc.sabotage(t, path, mustLoad(t, path))
			var handed []clog2.Record
			begins := 0
			st, err := Walk(path, q, func(int) func(clog2.Block) error {
				begins++
				handed = handed[:0]
				return func(b clog2.Block) error {
					handed = append(handed, b.Records...)
					return nil
				}
			})
			if err != nil || st != tc.want || begins != tc.begins {
				t.Fatalf("Walk = %v, %v after %d begin(s); want %v, nil, %d", st, err, begins, tc.want, tc.begins)
			}
			var got []clog2.Record
			for i := range handed {
				r := &handed[i]
				switch r.Type {
				case clog2.RecBareEvt, clog2.RecCargoEvt, clog2.RecMsgEvt:
					if r.Time < q.T0 || r.Time > q.T1 {
						t.Errorf("handed over %v at %v, outside the window", r.Type, r.Time)
					}
				}
				if q.Matches(r) {
					got = append(got, *r)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("the walk kept %d record(s), the full decode %d, or they differ", len(got), len(want))
			}
		})
	}
	// A window no record can match by its bounds alone ends the walk
	// before the log is opened.
	for _, w := range [][2]float64{{math.NaN(), 1}, {0, math.NaN()}, {2, 1}, {math.Inf(1), math.Inf(1)}, {math.Inf(-1), math.Inf(-1)}} {
		q := MatchAll()
		q.T0, q.T1 = w[0], w[1]
		begins := 0
		st, err := Walk(filepath.Join(t.TempDir(), "absent.clog2"), q, func(int) func(clog2.Block) error {
			begins++
			return func(clog2.Block) error { return nil }
		})
		if err == nil || !strings.Contains(err.Error(), "empty time window") || st != StatusDegraded || begins != 0 {
			t.Errorf("window %v: Walk = %v, %v after %d begin(s); want the window refused by name", w, st, err, begins)
		}
	}
}

// A table that lies about a block of several runs is caught after some
// of them were delivered: Walk starts the consumer over, and what the
// second begin collects is what the plain scan reads.
func TestWalkLyingLongBlock(t *testing.T) {
	for _, c := range longBlockLies {
		path := writeLongLog(t)
		ix := mustLoad(t, path)
		logSize := (*clog2.Table)(ix).LogSize()
		c.lie(ix)
		validates(t, path, ix)
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
		if err != nil || st != StatusDegraded || len(attempts) != 2 {
			t.Fatalf("%s: Walk = %v, %v after %d begin(s); want degraded, nil, 2", c.name, st, err, len(attempts))
		}
		if got := len(attempts[0]); got != c.runs*clog2.RunRecords {
			t.Errorf("%s: the abandoned attempt saw %d records, want %d runs", c.name, got, c.runs)
		}
		writeFile(t, path, readFile(t, path)[:logSize])
		if st, err := Walk(path, q, collect); err != nil || st != StatusDegraded {
			t.Fatalf("%s: plain scan = %v, %v", c.name, st, err)
		}
		if !reflect.DeepEqual(attempts[1], attempts[2]) {
			t.Errorf("%s: the answer rests on %d records, the plain scan on %d, or they differ", c.name, len(attempts[1]), len(attempts[2]))
		}
	}
}

// Walk reports the log's own errors, whatever its table said.
func TestWalkUnreadableLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.clog2")
	writeFile(t, path, []byte("not a clog2 file at all"))
	begun := 0
	st, err := Walk(path, MatchAll(), func(int) func(clog2.Block) error {
		begun++
		return func(clog2.Block) error { return nil }
	})
	if err == nil || st != StatusDegraded || begun != 0 {
		t.Errorf("Walk = %v, %v after %d begin(s); want an error, degraded, 0", st, err, begun)
	}
	if _, err := BuildFile(path); err == nil {
		t.Error("BuildFile made a table of a file that is not a log")
	}
}

// failingFile is a log whose reads fail with a file-system error once n
// bytes have been read, as a disk going bad mid-scan would.
type failingFile struct {
	*bytes.Reader
	n int
}

func (f *failingFile) Read(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, &fs.PathError{Op: "read", Path: "log", Err: errors.New("input/output error")}
	}
	n, err := f.Reader.Read(p[:min(len(p), f.n)])
	f.n -= n
	return n, err
}

// Walk falls back to the scan only when the table lies: the visitor's own
// error ends the walk at once, begun once and with the table's status,
// and a file-system error mid-scan is not a lie either.
func TestWalkVisitorErrorEndsTheWalk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "thumbnail.clog2")
	writeFile(t, path, goldenThumbnail(t))
	stop := errors.New("stop")
	begun := 0
	st, err := Walk(path, MatchAll(), func(int) func(clog2.Block) error {
		begun++
		return func(clog2.Block) error { return stop }
	})
	if err != stop || st != StatusOK || begun != 1 {
		t.Errorf("Walk = %v, %v after %d begin(s); want ok, the visitor's error, 1", st, err, begun)
	}

	ix := mustLoad(t, path)
	all := make([]int, len(ix.Blocks))
	for i := range all {
		all[i] = i
	}
	f := &failingFile{Reader: bytes.NewReader(goldenThumbnail(t)), n: int(ix.Blocks[1].Offset) + 100}
	err = scan(f, ix, all, MatchAll(), func(clog2.Block) error { return nil })
	if pe := (*fs.PathError)(nil); !errors.As(err, &pe) || errors.Is(err, ErrCorrupt) {
		t.Errorf("a read failing mid-scan: err = %v, want the file system's, not ErrCorrupt", err)
	}
}

// The hostile tails: whatever is wrong behind the end-log marker (the
// table cut anywhere, a flipped bit, a footer that points into the
// header, into the blocks or past the end, a last block that stops short
// of the end-log marker, an entry that lies under a valid CRC, a byte
// appended behind the footer), every answer is the full scan's, byte for
// byte, and is labelled degraded.
func TestHostileTails(t *testing.T) {
	golden := goldenThumbnail(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "thumbnail.clog2")
	writeFile(t, path, golden)
	ix := mustLoad(t, path)
	at := (*clog2.Table)(ix).LogSize()
	footer := int64(len(golden) - clog2.FooterSize)
	pointAt := func(off uint64) []byte {
		d := append([]byte(nil), golden...)
		binary.LittleEndian.PutUint64(d[footer:], off)
		return d
	}
	cases := map[string][]byte{
		"crc flip":                 append(append(append([]byte(nil), golden[:at+30]...), golden[at+30]^1), golden[at+31:]...),
		"offset inside the header": pointAt(5),
		"offset inside the blocks": pointAt(uint64(ix.Blocks[1].Offset + 3)),
		"offset past the end":      pointAt(uint64(len(golden) + 100)),
		"grown after its footer":   append(append([]byte(nil), golden...), 0),
	}
	for n := at; n < int64(len(golden)); n++ {
		cases[fmt.Sprintf("cut to %d bytes", n)] = golden[:n]
	}
	short := mustLoad(t, path)
	short.Blocks[len(short.Blocks)-1].Length--
	d := clog2.AppendTable(append([]byte(nil), golden[:at]...), (*clog2.Table)(short))
	binary.LittleEndian.PutUint64(d[len(d)-clog2.FooterSize:], uint64(at)) // the footer's own offset, as written
	cases["last block short of the end-log marker"] = d
	// Every query selects the definitions' block, the one that lies.
	lying := mustLoad(t, path)
	lying.Blocks[0].Records--
	lying.TotalRecords--
	cases["lying entry"] = clog2.AppendTable(append([]byte(nil), golden[:at]...), (*clog2.Table)(lying))

	var queries []Query
	for _, mod := range []func(*Query){
		func(q *Query) {},
		func(q *Query) { q.Rank = int32(ix.NumRanks - 1) },
		func(q *Query) { q.Chan = ix.Blocks[1].ChanMin },
		func(q *Query) {
			q.T0, q.T1 = ix.Blocks[1].TMin, ix.Blocks[1].TMin+(ix.Blocks[1].TMax-ix.Blocks[1].TMin)/3
		},
	} {
		q := MatchAll()
		q.IncludeDefs = true
		mod(&q)
		queries = append(queries, q)
	}
	answer := func(path string, q Query) (Status, []clog2.Record) {
		var got []clog2.Record
		st, err := Walk(path, q, func(int) func(clog2.Block) error {
			got = got[:0]
			return func(b clog2.Block) error {
				for i := range b.Records {
					if q.Matches(&b.Records[i]) {
						got = append(got, b.Records[i])
					}
				}
				return nil
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return st, got
	}
	plain := filepath.Join(dir, "plain.clog2")
	writeFile(t, plain, golden[:at])
	for name, data := range cases {
		writeFile(t, path, data)
		for _, q := range queries {
			st, got := answer(path, q)
			_, want := answer(plain, q)
			if st != StatusDegraded {
				t.Errorf("%s, %+v: status %v, want degraded", name, q, st)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %+v: %d record(s), the scan's %d, or they differ", name, q, len(got), len(want))
			}
		}
	}
}
