package clog2

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
)

// writeLog writes a four-rank log with two blocks per rank, defs up
// front, and enough variety (messages, bare events, a timeshift) to
// exercise every fence.
func writeLog(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.clog2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	defs := []Record{
		{Type: RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Color: "red", Name: "A"},
		{Type: RecEventDef, ID: 7, Color: "blue", Name: "E"},
		{Type: RecConstDef, ID: 8, Aux1: 42, Name: "K"},
	}
	for rank := int32(0); rank < 4; rank++ {
		base := float64(rank)
		first := []Record{
			{Type: RecBareEvt, Rank: rank, Time: base + 0.1, ID: 2},
			{Type: RecMsgEvt, Rank: rank, Time: base + 0.2, Dir: DirSend,
				Aux1: (rank + 1) % 4, Aux2: 10 + rank, Aux3: 100},
			{Type: RecBareEvt, Rank: rank, Time: base + 0.3, ID: 3},
		}
		if rank == 0 {
			first = append(defs, first...)
		}
		if err := w.WriteBlock(rank, first); err != nil {
			t.Fatal(err)
		}
		second := []Record{
			{Type: RecTimeShift, Rank: rank, Time: base + 0.4, Shift: 1e-6},
			{Type: RecMsgEvt, Rank: rank, Time: base + 0.5, Dir: DirRecv,
				Aux1: (rank + 3) % 4, Aux2: 10 + (rank+3)%4, Aux3: 100},
			{Type: RecBareEvt, Rank: rank, Time: base + 0.6, ID: 7},
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

// selects is the query's cut spelled out record by record, for the tests
// to hold the reader to: a definition when q.IncludeDefs, and a timed
// record of q's rank (any, when negative) stamped inside [q.T0, q.T1].
func selects(q Query, r *Record) bool {
	if r.Type.IsDef() {
		return q.IncludeDefs
	}
	return (q.Rank < 0 || r.Rank == q.Rank) && r.Time >= q.T0 && r.Time <= q.T1
}

// scanFile is scan over the log at path.
func scanFile(path string, ix *Table, sel []int, q Query, fn func(Block) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return scan(f, ix, sel, q, fn)
}

func mustLoad(t *testing.T, path string) *Table {
	t.Helper()
	ix, err := LoadTable(path)
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
func withTable(t *testing.T, path string, ix *Table) []byte {
	t.Helper()
	log := readFile(t, path)[:ix.LogSize()]
	return AppendTable(append([]byte(nil), log...), ix)
}

// restamp recomputes the footer's CRC after the table in data was
// mutated, so the result passes the checksum and exercises the structural
// validation instead.
func restamp(data []byte) []byte {
	foot := data[len(data)-FooterSize:]
	at := binary.LittleEndian.Uint64(foot)
	binary.LittleEndian.PutUint32(foot[8:], crc32.ChecksumIEEE(data[at:len(data)-FooterSize]))
	return data
}

// writeLongLog writes a two-rank log whose rank 0 logs 10 000 records (two
// definitions, then events) in three blocks, two of them full, and whose
// rank 1 logs one block of one record.
func writeLongLog(t *testing.T) string {
	t.Helper()
	long := []Record{
		{Type: RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Color: "red", Name: "A"},
		{Type: RecEventDef, ID: 7, Color: "blue", Name: "E"},
	}
	for i := 0; len(long) < 10_000; i++ {
		long = append(long, Record{Type: RecBareEvt, Time: float64(i) * 1e-3, ID: int32(2 + i%2)})
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteCut(NewCut(0, 2, MaxBlockRecords, long)); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBlock(1, []Record{{Type: RecBareEvt, Rank: 1, Time: 0.5, ID: 7}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "long.clog2")
	writeFile(t, path, buf.Bytes())
	return path
}

// longBlockLies are the ways the entry of writeLongLog's second block can
// disagree with the block while every sum ReadTable checks still adds up:
// a scan finds out after it delivered the first block.
var longBlockLies = []struct {
	name string
	lie  func(ix *Table)
}{
	{"one record fewer", func(ix *Table) { ix.Blocks[1].Records--; ix.TotalRecords-- }},
	{"one record more", func(ix *Table) { ix.Blocks[1].Records++; ix.TotalRecords++ }},
	{"wrong rank", func(ix *Table) { ix.Blocks[1].Rank = 1 }},
}

// The table a Writer ends a log with reads back as what it wrote, is the
// table a scan makes, and re-encodes to its own bytes.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	path := writeLog(t)
	data := readFile(t, path)
	ix := mustLoad(t, path)
	if enc := AppendTable(nil, ix); !bytes.Equal(enc, data[ix.LogSize():]) {
		t.Errorf("the table re-encodes to %d bytes unlike the %d it was read from", len(enc), len(data)-int(ix.LogSize()))
	}
	scanned, err := ScanTable(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ix, scanned) {
		t.Errorf("the table read differs from a scan's:\n got %+v\nwant %+v", ix, scanned)
	}
	if ix.NumRanks != 4 || len(ix.Blocks) != 8 {
		t.Errorf("read %d ranks, %d blocks; want 4, 8", ix.NumRanks, len(ix.Blocks))
	}
	if int(ix.TotalRecords) != 3+8*3 {
		t.Errorf("TotalRecords = %d, want %d", ix.TotalRecords, 3+8*3)
	}
}

// The Writer's entry and a scan's (ScanTable on a log without a table)
// count and fence the same way.
func TestTableCountsAndFences(t *testing.T) {
	path := writeLog(t)
	bare := readFile(t, path)[:mustLoad(t, path).LogSize()]
	scanned, err := ScanTable(bytes.NewReader(bare))
	if err != nil {
		t.Fatal(err)
	}
	for name, ix := range map[string]*Table{"written": mustLoad(t, path), "scanned": scanned} {
		b0 := ix.Blocks[0]
		if b0.Rank != 0 || b0.Records != 6 || b0.Defs != 3 {
			t.Errorf("%s: rank-0 first block meta = %+v", name, b0)
		}
		if b0.TMin != 0.1 || b0.TMax != 0.3 {
			t.Errorf("%s: rank-0 time fence = [%v, %v], want [0.1, 0.3] (defs excluded)", name, b0.TMin, b0.TMax)
		}
	}
}

// Every answer through the table is the full scan's records the query
// selects, and narrow queries actually prune blocks (the point of the
// table).
func TestSelectScanEqualsFullScan(t *testing.T) {
	path := writeLog(t)
	ix := mustLoad(t, path)

	fullScan := func(q Query) []Record {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		br, err := NewBlockReader(f)
		if err != nil {
			t.Fatal(err)
		}
		var out []Record
		for {
			b, err := br.NextReuse(nil)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := range b.Records {
				if selects(q, &b.Records[i]) {
					out = append(out, b.Records[i])
				}
			}
		}
		return out
	}

	narrow := func(mod func(*Query)) Query {
		q := MatchAll()
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
		{"rank+window", narrow(func(q *Query) { q.Rank = 3; q.T0, q.T1 = 3.0, 3.35 }), true},
		{"no-defs-window", narrow(func(q *Query) { q.T0, q.T1, q.IncludeDefs = 2.0, 2.9, false }), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sel := ix.Select(tc.q)
			if tc.wantPrune && len(sel) >= len(ix.Blocks) {
				t.Errorf("query selected all %d blocks; fences pruned nothing", len(sel))
			}
			var got []Record
			if err := scanFile(path, ix, sel, tc.q, collectInto(&got)); err != nil {
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

// Every way a log can come without a usable table is refused by LoadTable,
// with the reason in its error.
func TestLoadDegradations(t *testing.T) {
	path := writeLog(t)
	data := readFile(t, path)
	if _, err := LoadTable(path); err != nil {
		t.Fatalf("a Writer's table failed to load: %v", err)
	}
	logSize := mustLoad(t, path).LogSize()
	flipped := append([]byte(nil), data...)
	flipped[logSize+20] ^= 0xff
	for name, bad := range map[string][]byte{
		"written before tables": data[:logSize],
		"footer cut off":        data[:len(data)-FooterSize],
		"grown after its table": append(append([]byte(nil), data...), 0),
		"flipped table byte":    flipped,
	} {
		writeFile(t, path, bad)
		if _, err := LoadTable(path); !errors.Is(err, ErrNoTable) {
			t.Errorf("%s: err = %v, want ErrNoTable", name, err)
		}
	}
	// Cut anywhere in its table or footer: never panics, never loads.
	for n := logSize; n < int64(len(data)); n++ {
		writeFile(t, path, data[:n])
		if _, err := LoadTable(path); !errors.Is(err, ErrNoTable) {
			t.Fatalf("a cut to %d bytes: err = %v, want ErrNoTable", n, err)
		}
	}
	if _, err := LoadTable(filepath.Join(t.TempDir(), "absent.clog2")); err == nil || errors.Is(err, ErrNoTable) {
		t.Errorf("a missing file: err = %v, want the open error", err)
	}
}

// validates asserts that the log at path with ix as its table passes
// ReadTable, and writes it there.
func validates(t *testing.T, path string, ix *Table) {
	t.Helper()
	data := withTable(t, path, ix)
	if _, err := ReadTable(bytes.NewReader(data), int64(len(data))); err != nil {
		t.Fatalf("mutant failed validation (wanted it to pass): %v", err)
	}
	writeFile(t, path, data)
}

// A table that passes every structural check but lies about the file
// must be caught by scan's per-block verification.
func TestScanFileDetectsLyingIndex(t *testing.T) {
	scan := func(path string, ix *Table) (blocks int, err error) {
		t.Helper()
		validates(t, path, ix)
		err = scanFile(path, ix, ix.Select(MatchAll()), MatchAll(), func(Block) error { blocks++; return nil })
		return blocks, err
	}
	path := writeLog(t)
	ix := mustLoad(t, path)
	// Swap the rank labels of two blocks; offsets, counts and sums all
	// stay plausible, so ReadTable accepts the mutant.
	ix.Blocks[2].Rank, ix.Blocks[4].Rank = ix.Blocks[4].Rank, ix.Blocks[2].Rank
	if _, err := scan(path, ix); !errors.Is(err, ErrCorrupt) {
		t.Errorf("lying table: err = %v, want ErrCorrupt", err)
	}
	// A lie about a block is found before the block is handed over, after
	// the blocks before it were.
	path = writeLongLog(t)
	for _, c := range longBlockLies {
		ix := mustLoad(t, writeLongLog(t))
		c.lie(ix)
		if blocks, err := scan(path, ix); !errors.Is(err, ErrCorrupt) || blocks != 1 {
			t.Errorf("%s: err = %v after %d blocks, want ErrCorrupt after 1", c.name, err, blocks)
		}
	}
	if blocks, err := scan(path, mustLoad(t, writeLongLog(t))); err != nil || blocks != 4 {
		t.Errorf("honest table: err = %v after %d blocks, want nil after 4", err, blocks)
	}
}

func TestScanFileEmptySelection(t *testing.T) {
	path := writeLog(t)
	ix := mustLoad(t, path)
	called := false
	if err := scanFile(path, ix, nil, MatchAll(), func(Block) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("empty selection visited a block")
	}
	if err := scanFile(path, ix, []int{len(ix.Blocks)}, MatchAll(), func(Block) error { return nil }); err == nil {
		t.Error("out-of-range selection did not error")
	}
}

// ReadTable refuses every hostile table or footer with ErrNoTable. The
// mutants of the table are restamped, so that its structure is what fails.
func TestDecodeHostile(t *testing.T) {
	path := writeLog(t)
	valid := readFile(t, path)
	at := int(mustLoad(t, path).LogSize())
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

	var (
		offNBlocks = at
		offBlock0  = at + tableHeadSize
		offFooter  = len(valid) - FooterSize
		offSig     = len(valid) - len(TableMagic)
	)
	// The table without its last entry, under the footer as written: its
	// lengths sum short of the end-log marker.
	short := mustLoad(t, path)
	short.Blocks = short.Blocks[:len(short.Blocks)-1]
	fewer := AppendTable(append([]byte(nil), valid[:at]...), short)
	binary.LittleEndian.PutUint64(fewer[len(fewer)-FooterSize:], uint64(at))
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", valid[:10]},
		{"bad-magic", mutate(false, func(d []byte) { d[offSig] = 'X' })},
		{"bad-version", mutate(false, func(d []byte) { copy(d[offSig:], "CLOGTAB-99") })},
		{"zero-ranks", mutate(false, func(d []byte) { le32at(d, len(Magic), 0) })},
		{"absurd-ranks", mutate(false, func(d []byte) { le32at(d, len(Magic), 1<<21) })},
		{"huge-block-table", mutate(true, func(d []byte) { le32at(d, offNBlocks, 1<<30) })},
		{"offset-before-header", mutate(false, func(d []byte) { le64at(d, offFooter, 0) })},
		{"negative-length", mutate(true, func(d []byte) { le64at(d, offBlock0, ^uint64(0)) })},
		{"overlapping-blocks", mutate(true, func(d []byte) {
			// Make block 1 start inside block 0.
			le64at(d, offBlock0, binary.LittleEndian.Uint64(d[offBlock0:])-1)
		})},
		{"defs-exceed-records", mutate(true, func(d []byte) { le32at(d, offBlock0+16, 1<<20) })},
		{"sum-mismatch", restamp(fewer)},
		{"trailing-bytes", restamp(append(append(append([]byte(nil), valid[:len(valid)-FooterSize]...), make([]byte, 8)...),
			valid[len(valid)-FooterSize:]...))},
		{"crc-mismatch", mutate(false, func(d []byte) { d[offBlock0+40] ^= 0xff })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadTable(bytes.NewReader(tc.data), int64(len(tc.data))); !errors.Is(err, ErrNoTable) {
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
		copy(p, AppendHeader(nil, 1))
	}
	if off == h.size-int64(FooterSize) {
		binary.LittleEndian.PutUint64(p, uint64(HeaderSize+1))
		copy(p[12:], TableMagic)
	}
	return len(p), nil
}

// A footer that claims a table past the 64 MiB cap is refused before any
// of it is read into memory.
func TestReadCapsSidecarSize(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadTable(hugeLog{size: 65 << 20}, 65<<20)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrNoTable) {
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
	at := int(mustLoad(t, path).LogSize())
	last := at + tableHeadSize + 7*tableEntrySize // the eighth entry's length field
	binary.LittleEndian.PutUint64(data[last:], binary.LittleEndian.Uint64(data[last:])+1<<20)
	writeFile(t, path, restamp(data))
	if _, err := LoadTable(path); !errors.Is(err, ErrNoTable) {
		t.Errorf("block table past EOF: err = %v, want ErrNoTable", err)
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
	w, err := NewWriter(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBlock(0, []Record{
		{Type: RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Name: "A", Color: "red"},
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
	q.IncludeDefs = false
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

// kept lists the blocks of the log data holds as a walk for q over every
// block sees them: each block's rank and how many of its records q selects.
func kept(t *testing.T, data []byte, q Query) []visit {
	t.Helper()
	var out []visit
	br, err := NewBlockReader(bytes.NewReader(data))
	if err == nil {
		err = br.Each(func(b Block) error {
			n := 0
			for i := range b.Records {
				if selects(q, &b.Records[i]) {
					n++
				}
			}
			out = append(out, visit{b.Rank, n})
			return nil
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Walk is the one place that chooses between the table and the scan: for
// every state a log's table can be in, whether it used the table, the blocks
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
		sabotage func(t *testing.T, path string, ix *Table, sel []int)
		used     bool
		begins   int
	}{
		// What an older writer left: the log, and nothing behind it.
		{"none", func(t *testing.T, path string, ix *Table, _ []int) {
			writeFile(t, path, golden[:ix.LogSize()])
		}, false, 1},
		{"ok", func(*testing.T, string, *Table, []int) {}, true, 1},
		// The blocks were rewritten after the table was: the last block the
		// query selects is now rank 0's, header and records, stamped after
		// rank 0's blocks before it, which ReadTable cannot see and scan
		// finds after the earlier blocks.
		{"stale", func(t *testing.T, path string, ix *Table, sel []int) {
			data := readFile(t, path)
			m := ix.Blocks[sel[len(sel)-1]]
			br, err := NewBlockReaderAt(bytes.NewReader(data), m.Offset, ix.NumRanks)
			if err != nil {
				t.Fatal(err)
			}
			b, err := br.NextReuse(nil)
			if err != nil {
				t.Fatal(err)
			}
			var after float64 // rank 0's last stamp before the block
			for _, e := range ix.Blocks[:sel[len(sel)-1]] {
				if e.Rank == 0 && e.Records > e.Defs {
					after = e.TMax
				}
			}
			for i := range b.Records {
				b.Records[i].Rank = 0
				b.Records[i].Time += after
			}
			enc, err := AppendBlock(nil, 0, b.Records)
			if err != nil || int64(len(enc)) != m.Length {
				t.Fatalf("rank 0's copy of the block: %d bytes, %v", len(enc), err)
			}
			copy(data[m.Offset:], enc)
			writeFile(t, path, data)
		}, false, 2},
		{"corrupt", func(t *testing.T, path string, ix *Table, _ []int) {
			flip(t, path, ix.LogSize())
		}, false, 1},
		// A table of another version under a valid CRC.
		{"previous version", func(t *testing.T, path string, _ *Table, _ []int) {
			data := readFile(t, path)
			copy(data[len(data)-len(TableMagic):], "CLOGTAB-02")
			writeFile(t, path, data)
		}, false, 1},
		// Valid CRC, valid sums, but the last block the query selects
		// holds one record fewer than its entry says: LoadTable accepts it and
		// scan catches it after the earlier blocks were delivered.
		{"lying", func(t *testing.T, path string, ix *Table, sel []int) {
			ix.Blocks[sel[len(sel)-1]].Records++
			ix.TotalRecords++
			validates(t, path, ix)
		}, false, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "thumbnail.clog2")
			writeFile(t, path, golden)
			ix := mustLoad(t, path)
			// The defs and the last rank: a selection that skips blocks
			// and still spans more than one.
			q := MatchAll()
			q.Rank = int32(ix.NumRanks - 1)
			sel := ix.Select(q)
			if len(sel) < 2 || len(sel) >= len(ix.Blocks) {
				t.Fatalf("query selects %d of %d blocks; the test needs a proper subset of two or more", len(sel), len(ix.Blocks))
			}
			var selected []visit
			for _, i := range sel {
				selected = append(selected, kept(t, golden, q)[i])
			}
			tc.sabotage(t, path, mustLoad(t, path), sel)

			var attempts [][]visit
			used, err := Walk(path, q, func(numRanks int) func(Block) error {
				if numRanks != ix.NumRanks {
					t.Errorf("begin(%d), the log has %d ranks", numRanks, ix.NumRanks)
				}
				attempts = append(attempts, nil)
				return func(b Block) error {
					last := &attempts[len(attempts)-1]
					*last = append(*last, visit{b.Rank, len(b.Records)})
					return nil
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if used != tc.used {
				t.Errorf("table used = %v, want %v", used, tc.used)
			}
			if len(attempts) != tc.begins {
				t.Fatalf("begin called %d time(s), want %d", len(attempts), tc.begins)
			}
			want := kept(t, readFile(t, path), q)
			if tc.used {
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

// walkWindow is TestWalk's matrix for the queries that cut blocks: a
// window, a rank, and both. Whatever state the table is in, the walk hands
// over exactly the records of a full decode that the query selects
// (selects), in order, and the visitor tests none. Each query selects the
// definitions' block for its definitions alone, its timed records lying
// outside the query, and a table that lies about that block, or about one
// whose records the query keeps, is caught by its count.
func walkWindow(t *testing.T) {
	var queries []Query
	for _, cut := range []func(*Query){
		func(q *Query) { q.T0, q.T1 = 1.0, 1.9 },
		func(q *Query) { q.Rank = 1 },
		func(q *Query) { q.Rank, q.T0, q.T1 = 1, 1.35, 1.9 },
	} {
		q := MatchAll()
		cut(&q)
		queries = append(queries, q)
	}
	selections := [][]int{{0, 2, 3}, {0, 2, 3}, {0, 3}}
	for _, tc := range []struct {
		name     string
		sabotage func(t *testing.T, path string, ix *Table)
		used     bool
		begins   int
	}{
		{"ok", func(*testing.T, string, *Table) {}, true, 1},
		{"none", func(t *testing.T, path string, ix *Table) {
			writeFile(t, path, readFile(t, path)[:ix.LogSize()])
		}, false, 1},
		{"lying outside the window", func(t *testing.T, path string, ix *Table) {
			ix.Blocks[0].Records++
			ix.TotalRecords++
			validates(t, path, ix)
		}, false, 2},
		{"lying inside the window", func(t *testing.T, path string, ix *Table) {
			ix.Blocks[3].Records--
			ix.TotalRecords--
			validates(t, path, ix)
		}, false, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i, q := range queries {
				path := writeLog(t)
				ix := mustLoad(t, path)
				if sel := ix.Select(q); !reflect.DeepEqual(sel, selections[i]) {
					t.Fatalf("%+v selects blocks %v, the test needs %v", q, sel, selections[i])
				}
				if b := ix.Blocks[0]; b.TMax >= q.T0 && q.Rank < 0 {
					t.Fatalf("the defs' block has timed records up to %v, inside the window", b.TMax)
				}
				_, blocks, err := readBlocks(bytes.NewReader(readFile(t, path)))
				if err != nil {
					t.Fatal(err)
				}
				var want []Record
				for _, b := range blocks {
					for _, r := range b.Records {
						if selects(q, &r) {
							want = append(want, r)
						}
					}
				}

				tc.sabotage(t, path, mustLoad(t, path))
				var got []Record
				begins := 0
				used, err := Walk(path, q, func(int) func(Block) error {
					begins++
					got = got[:0]
					return collectInto(&got)
				})
				if err != nil || used != tc.used || begins != tc.begins {
					t.Fatalf("%+v: Walk = %v, %v after %d begin(s); want %v, nil, %d", q, used, err, begins, tc.used, tc.begins)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%+v: the walk handed over %d record(s), the full decode selects %d, or they differ", q, len(got), len(want))
				}
			}
		})
	}
	// A window no record can match by its bounds alone ends the walk
	// before the log is opened.
	for _, w := range [][2]float64{{math.NaN(), 1}, {0, math.NaN()}, {2, 1}, {math.Inf(1), math.Inf(1)}, {math.Inf(-1), math.Inf(-1)}} {
		q := MatchAll()
		q.T0, q.T1 = w[0], w[1]
		begins := 0
		used, err := Walk(filepath.Join(t.TempDir(), "absent.clog2"), q, func(int) func(Block) error {
			begins++
			return func(Block) error { return nil }
		})
		if err == nil || !strings.Contains(err.Error(), "empty time window") || used || begins != 0 {
			t.Errorf("window %v: Walk = %v, %v after %d begin(s); want the window refused by name", w, used, err, begins)
		}
	}
}

// A table that lies about a block is caught after the blocks before it
// were delivered: Walk starts the consumer over, and what the second begin
// collects is what the plain scan reads.
func TestWalkLyingLongBlock(t *testing.T) {
	for _, c := range longBlockLies {
		path := writeLongLog(t)
		ix := mustLoad(t, path)
		logSize := ix.LogSize()
		c.lie(ix)
		validates(t, path, ix)
		var attempts [][]Record
		collect := func(int) func(Block) error {
			attempts = append(attempts, nil)
			return func(b Block) error {
				attempts[len(attempts)-1] = append(attempts[len(attempts)-1], b.Records...)
				return nil
			}
		}
		q := MatchAll()
		q.IncludeDefs = true
		used, err := Walk(path, q, collect)
		if err != nil || used || len(attempts) != 2 {
			t.Fatalf("%s: Walk = %v, %v after %d begin(s); want false, nil, 2", c.name, used, err, len(attempts))
		}
		if got := len(attempts[0]); got != MaxBlockRecords {
			t.Errorf("%s: the abandoned attempt saw %d records, want the first block's %d", c.name, got, MaxBlockRecords)
		}
		writeFile(t, path, readFile(t, path)[:logSize])
		if used, err := Walk(path, q, collect); err != nil || used {
			t.Fatalf("%s: plain scan = %v, %v", c.name, used, err)
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
	used, err := Walk(path, MatchAll(), func(int) func(Block) error {
		begun++
		return func(Block) error { return nil }
	})
	if err == nil || used || begun != 0 {
		t.Errorf("Walk = %v, %v after %d begin(s); want an error, false, 0", used, err, begun)
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
// error ends the walk at once, begun once and with the table used,
// and a file-system error mid-scan is not a lie either.
func TestWalkVisitorErrorEndsTheWalk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "thumbnail.clog2")
	writeFile(t, path, goldenThumbnail(t))
	stop := errors.New("stop")
	begun := 0
	used, err := Walk(path, MatchAll(), func(int) func(Block) error {
		begun++
		return func(Block) error { return stop }
	})
	if err != stop || !used || begun != 1 {
		t.Errorf("Walk = %v, %v after %d begin(s); want true, the visitor's error, 1", used, err, begun)
	}

	ix := mustLoad(t, path)
	all := make([]int, len(ix.Blocks))
	for i := range all {
		all[i] = i
	}
	f := &failingFile{Reader: bytes.NewReader(goldenThumbnail(t)), n: int(ix.Blocks[1].Offset) + 100}
	err = scan(f, ix, all, MatchAll(), func(Block) error { return nil })
	if pe := (*fs.PathError)(nil); !errors.As(err, &pe) || errors.Is(err, ErrCorrupt) {
		t.Errorf("a read failing mid-scan: err = %v, want the file system's, not ErrCorrupt", err)
	}
}

// The hostile tails: whatever is wrong behind the end-log marker (the
// table cut anywhere, a flipped bit, a footer that points into the
// header, into the blocks or past the end, a last block that stops short
// of the end-log marker, an entry that lies under a valid CRC, a byte
// appended behind the footer), every answer is the full scan's, byte for
// byte, and does not rest on the table.
func TestHostileTails(t *testing.T) {
	golden := goldenThumbnail(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "thumbnail.clog2")
	writeFile(t, path, golden)
	ix := mustLoad(t, path)
	at := ix.LogSize()
	footer := int64(len(golden) - FooterSize)
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
	d := AppendTable(append([]byte(nil), golden[:at]...), short)
	binary.LittleEndian.PutUint64(d[len(d)-FooterSize:], uint64(at)) // the footer's own offset, as written
	cases["last block short of the end-log marker"] = d
	// Every query selects the definitions' block, the one that lies.
	lying := mustLoad(t, path)
	lying.Blocks[0].Records--
	lying.TotalRecords--
	cases["lying entry"] = AppendTable(append([]byte(nil), golden[:at]...), lying)

	var queries []Query
	for _, mod := range []func(*Query){
		func(q *Query) {},
		func(q *Query) { q.Rank = int32(ix.NumRanks - 1) },
		func(q *Query) {
			q.T0, q.T1 = ix.Blocks[1].TMin, ix.Blocks[1].TMin+(ix.Blocks[1].TMax-ix.Blocks[1].TMin)/3
		},
		func(q *Query) {
			q.Rank, q.T0, q.T1 = ix.Blocks[1].Rank, ix.Blocks[1].TMin, ix.Blocks[1].TMax
		},
	} {
		q := MatchAll()
		mod(&q)
		queries = append(queries, q)
	}
	answer := func(path string, q Query) (bool, []Record) {
		var got []Record
		used, err := Walk(path, q, func(int) func(Block) error {
			got = got[:0]
			return collectInto(&got)
		})
		if err != nil {
			t.Fatal(err)
		}
		return used, got
	}
	plain := filepath.Join(dir, "plain.clog2")
	writeFile(t, plain, golden[:at])
	for name, data := range cases {
		writeFile(t, path, data)
		for _, q := range queries {
			used, got := answer(path, q)
			_, want := answer(plain, q)
			if used {
				t.Errorf("%s, %+v: the table was used", name, q)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %+v: %d record(s), the scan's %d, or they differ", name, q, len(got), len(want))
			}
		}
	}
}

// A timed record stamped NaN, ±Inf or before the timed record of its rank
// before it breaks the rule of a block (Block). No Writer writes one, so
// each log here is a Writer's with one stamp overwritten where it lies,
// under the table the Writer wrote. Every reader refuses it by name: Each,
// NextIn on a record it keeps and on one its window steps over, ScanTable,
// Walk through the table (which then finds the table's block unreadable and
// scans, to the same refusal) and DecodeBlockPayload, which holds a block
// to the rule on its own.
func TestReadersRefuseStampsOutOfOrder(t *testing.T) {
	bare := func(rank int32, at float64) Record { return Record{Type: RecBareEvt, Rank: rank, Time: at, ID: 2} }
	for _, c := range []struct {
		name   string
		blocks []Block
		// The stamp of record rec of block blk becomes at; NextIn over
		// window steps over the record when at is a number outside it.
		blk, rec int
		at       float64
		window   [2]float64
		want     string
	}{
		{"backward in a block", []Block{{1, []Record{bare(1, 1), bare(1, 2)}}}, 0, 1, 0.5, [2]float64{0.9, 2},
			"clog2: a BareEvt record of rank 1 stamped 0.5, before its rank's 1"},
		{"backward across two blocks of a rank with another rank's block between them",
			[]Block{{1, []Record{bare(1, 0.5), bare(1, 0.75)}}, {0, []Record{bare(0, 0)}}, {1, []Record{bare(1, 1)}}}, 2, 0, 0.5, [2]float64{0.6, 2},
			"clog2: a BareEvt record of rank 1 stamped 0.5, before its rank's 0.75"},
		{"stamped NaN", []Block{{1, []Record{bare(1, 1), bare(1, 2)}}}, 0, 1, math.NaN(), [2]float64{0.9, 2},
			"clog2: a BareEvt record of rank 1 stamped NaN"},
		{"stamped +Inf", []Block{{1, []Record{bare(1, 1), bare(1, 2)}}}, 0, 1, math.Inf(1), [2]float64{0.9, 2},
			"clog2: a BareEvt record of rank 1 stamped +Inf"},
		{"stamped -Inf first", []Block{{1, []Record{bare(1, 1), bare(1, 2)}}}, 0, 0, math.Inf(-1), [2]float64{0.9, 2},
			"clog2: a BareEvt record of rank 1 stamped -Inf"},
	} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range c.blocks {
			if err := w.WriteBlock(b.Rank, b.Records); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		data, m := buf.Bytes(), w.Table().Blocks[c.blk]
		binary.LittleEndian.PutUint64(data[m.Offset+blockHeaderSize+17*int64(c.rec)+1:], math.Float64bits(c.at))
		path := filepath.Join(t.TempDir(), "back.clog2")
		writeFile(t, path, data)
		mustLoad(t, path) // the Writer's table, which a stamp does not touch

		refused := func(what string, err error) {
			t.Helper()
			if err == nil || err.Error() != c.want {
				t.Errorf("%s: %s gives %v, want %s", c.name, what, err, c.want)
			}
		}
		_, _, err = readBlocks(bytes.NewReader(data))
		refused("Each", err)
		for _, win := range [][2]float64{{math.Inf(-1), math.Inf(1)}, c.window} {
			br, err := NewBlockReader(bytes.NewReader(data))
			for err == nil {
				_, _, err = br.NextIn(nil, Query{T0: win[0], T1: win[1], Rank: -1, IncludeDefs: true})
			}
			refused(fmt.Sprintf("NextIn over %v", win), err)
		}
		_, err = ScanTable(bytes.NewReader(data))
		refused("ScanTable", err)
		for _, win := range [][2]float64{{math.Inf(-1), math.Inf(1)}, c.window} {
			q := MatchAll()
			q.T0, q.T1 = win[0], win[1]
			begins := 0
			used, err := Walk(path, q, func(int) func(Block) error {
				begins++
				return func(Block) error { return nil }
			})
			refused(fmt.Sprintf("Walk over %v", win), err)
			if used || begins != 2 {
				t.Errorf("%s: Walk over %v used the table %v, began %d times; want the table's block refused, then the scan", c.name, win, used, begins)
			}
		}
		_, err = DecodeBlockPayload(data[m.Offset:m.Offset+m.Length], m.Rank)
		if c.blk == 0 {
			refused("DecodeBlockPayload", err)
		} else if err != nil { // a breach across blocks: the block keeps the rule on its own
			t.Errorf("%s: DecodeBlockPayload gives %v", c.name, err)
		}
	}
}

// byteBuilt encodes blocks as a Writer does, with no check of the rule of a
// block, under the table a Writer would put behind them.
func byteBuilt(numRanks int, blocks []Block) []byte {
	log := AppendHeader(nil, numRanks)
	tab := Table{NumRanks: numRanks}
	for _, b := range blocks {
		m, last := newBlockMeta(b.Rank, int64(len(log))), noStamp
		log = AppendBlockHeader(log, b.Rank, len(b.Records))
		for i := range b.Records {
			log, _ = AppendRecord(log, &b.Records[i])
			m.add(b.Records[i].Type, b.Records[i].Time, &last)
		}
		log = append(log, byte(RecEndBlock))
		m.Length = int64(len(log)) - m.Offset
		tab.Blocks = append(tab.Blocks, m)
	}
	return AppendTable(append(log, byte(RecEndLog)), &tab)
}

// A definition that follows a timed record, of its block or of an earlier
// one of any rank, breaks the rule of a block (Block). No Writer writes one,
// so each log here is built byte by byte, under the table a Writer would
// write. Every reader refuses it by name: Each, NextIn at full span and
// with the timed record stepped over by the window, ScanTable, Walk and
// EachRank through the table (which send a log whose table shows the
// breach, or whose block breaks it, to the scan, to the same refusal),
// EachRank over a stream, a reader that seeks forward past the timed
// record's block, and DecodeBlockPayload when the breach is within one
// block.
func TestReadersRefuseADefinitionAfterATimedRecord(t *testing.T) {
	def := Record{Type: RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Name: "s"}
	bare := func(rank int32, at float64) Record { return Record{Type: RecBareEvt, Rank: rank, Time: at, ID: 2} }
	const want = "clog2: a StateDef record after the log's first timed record"
	for _, c := range []struct {
		name    string
		blocks  []Block
		inTable bool
	}{
		{"within a block", []Block{{0, []Record{bare(0, 1), def}}}, false},
		{"across two blocks of rank 0", []Block{{0, []Record{bare(0, 1)}}, {0, []Record{def}}}, true},
		{"after another rank's block", []Block{{1, []Record{bare(1, 1)}}, {0, []Record{def, bare(0, 2)}}}, true},
	} {
		data := byteBuilt(2, c.blocks)
		path := filepath.Join(t.TempDir(), "late.clog2")
		writeFile(t, path, data)
		tab := mustLoad(t, path)
		refused := func(what string, err error) {
			t.Helper()
			if err == nil || err.Error() != want {
				t.Errorf("%s: %s gives %v, want %s", c.name, what, err, want)
			}
		}
		_, _, err := readBlocks(bytes.NewReader(data))
		refused("Each", err)
		for _, win := range [][2]float64{{math.Inf(-1), math.Inf(1)}, {1.5, 3}} {
			br, err := NewBlockReader(bytes.NewReader(data))
			for err == nil {
				_, _, err = br.NextIn(nil, Query{T0: win[0], T1: win[1], Rank: -1, IncludeDefs: true})
			}
			refused(fmt.Sprintf("NextIn over %v", win), err)
		}
		_, err = ScanTable(bytes.NewReader(data))
		refused("ScanTable", err)
		begins := 0
		used, err := Walk(path, MatchAll(), func(int) func(Block) error {
			begins++
			return func(Block) error { return nil }
		})
		// Walk reads in file order, so it sees the breach itself: past a
		// table that shows it, straight to the scan.
		refused("Walk", err)
		if wantBegins := 2 - btoi(c.inTable); used || begins != wantBegins {
			t.Errorf("%s: Walk used the table %v, began %d times; want %d", c.name, used, begins, wantBegins)
		}
		// The per-rank walk, at 2 workers: a table that shows the breach
		// is not used, and the scan refuses the log before a rank's
		// visitor is made; a table that does not is caught at the block
		// that breaks it, which sends the walk to the same scan.
		begins = 0
		_, used, err = EachRank(tabled(data), MatchAll(), 2, func(int, []Record) func(int32) visitFunc {
			begins++
			return func(int32) visitFunc { return func(Block) error { return nil } }
		})
		refused("EachRank", err)
		if used || begins != 0 {
			t.Errorf("%s: EachRank used the table %v, began %d times; want the scan's refusal before it begins", c.name, used, begins)
		}
		_, _, err = EachRank(StreamInput(bytes.NewReader(data)), MatchAll(), 2, func(int, []Record) func(int32) visitFunc {
			return func(int32) visitFunc { return func(Block) error { return nil } }
		})
		refused("EachRank over a stream", err)
		last := tab.Blocks[len(tab.Blocks)-1]
		if len(tab.Blocks) > 1 {
			br, err := NewBlockReaderAt(bytes.NewReader(data), tab.Blocks[0].Offset, 2)
			if err == nil {
				_, err = br.NextReuse(nil)
			}
			if err == nil {
				err = br.SeekTo(last.Offset) // where it stands: a forward seek
			}
			if err != nil {
				t.Fatal(err)
			}
			_, err = br.NextReuse(nil)
			refused("NextReuse after a forward seek", err)
			if err := br.SeekTo(last.Offset); err != nil { // back: forgotten
				t.Fatal(err)
			}
			if _, err := br.NextReuse(nil); err != nil {
				t.Errorf("%s: the definition's block, read after a backward seek: %v", c.name, err)
			}
		}
		_, err = DecodeBlockPayload(data[last.Offset:last.Offset+last.Length], last.Rank)
		if len(c.blocks) == 1 {
			refused("DecodeBlockPayload", err)
		} else if err != nil { // a breach across blocks: the block keeps the rule on its own
			t.Errorf("%s: DecodeBlockPayload gives %v", c.name, err)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// A backward seek forgets the ranks' last stamps, so that reading a rank's
// later block and then seeking back to its earlier one refuses nothing; a
// forward seek keeps them.
func TestSeekBackForgetsStamps(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	var at []int64
	for _, stamp := range []float64{1, 2, 3} {
		at = append(at, w.Offset())
		if err := w.WriteBlock(0, []Record{{Type: RecBareEvt, Time: stamp}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	br, err := NewBlockReaderAt(bytes.NewReader(buf.Bytes()), at[2], 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, to := range []int64{at[2], at[0], at[2], at[1]} {
		if err := br.SeekTo(to); err != nil {
			t.Fatal(err)
		}
		if _, err := br.NextReuse(nil); err != nil {
			t.Errorf("the block at %d, read after a seek: %v", to, err)
		}
	}
	if br.last[0] != 2 {
		t.Errorf("rank 0's last stamp %v after the last block read, want 2", br.last[0])
	}
}
