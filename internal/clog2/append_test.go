package clog2

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"
)

// oracleEncode is the encoder AppendRecord replaced, kept as the
// reference: every field written on its own through encoding/binary.
func oracleEncode(r *Record) []byte {
	var b bytes.Buffer
	le := func(v any) { binary.Write(&b, binary.LittleEndian, v) }
	str := func(s string) { le(uint16(len(s))); b.WriteString(s) }
	le(uint8(r.Type))
	le(r.Time)
	le(r.Rank)
	switch r.Type {
	case RecStateDef:
		le(r.ID)
		le(r.Aux1)
		le(r.Aux2)
		str(r.Color)
		str(r.Name)
	case RecEventDef:
		le(r.ID)
		str(r.Color)
		str(r.Name)
	case RecConstDef:
		le(r.ID)
		le(r.Aux1)
		str(r.Name)
	case RecBareEvt:
		le(r.ID)
	case RecCargoEvt:
		le(r.ID)
		str(string(r.CargoBytes()))
	case RecMsgEvt:
		le(r.Dir)
		le(r.Aux1)
		le(r.Aux2)
		le(r.Aux3)
	case RecTimeShift:
		le(r.Shift)
	case RecSrcLoc:
		le(r.Aux1)
		str(r.Text)
	}
	return b.Bytes()
}

// randomRecord draws a record of type t that uses only the fields the
// type encodes, with the edge values the format has to carry.
func randomRecord(rng *rand.Rand, t RecType) Record {
	times := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e-300, rng.NormFloat64() * 1e6}
	ints := []int32{0, 1, -1, math.MaxInt32, math.MinInt32, rng.Int31()}
	i32 := func() int32 { return ints[rng.Intn(len(ints))] }
	str := func() string {
		switch rng.Intn(4) {
		case 0:
			return ""
		case 1:
			return strings.Repeat("\xff", math.MaxUint16)
		}
		return strings.Repeat("näme ", rng.Intn(40))
	}
	r := Record{Type: t, Time: times[rng.Intn(len(times))], Rank: i32()}
	switch t {
	case RecStateDef:
		r.ID, r.Aux1, r.Aux2, r.Color, r.Name = i32(), i32(), i32(), str(), str()
	case RecEventDef:
		r.ID, r.Color, r.Name = i32(), str(), str()
	case RecConstDef:
		r.ID, r.Aux1, r.Name = i32(), i32(), str()
	case RecBareEvt:
		r.ID = i32()
	case RecCargoEvt:
		r.ID = i32()
		cargo := make([]byte, []int{0, 1, MaxCargo, rng.Intn(MaxCargo + 1)}[rng.Intn(4)])
		rng.Read(cargo)
		r.CargoLen = uint8(copy(r.Cargo[:], cargo))
	case RecMsgEvt:
		r.Dir, r.Aux1, r.Aux2, r.Aux3 = uint8(rng.Intn(256)), i32(), i32(), i32()
	case RecTimeShift:
		r.Shift = times[rng.Intn(len(times))]
	case RecSrcLoc:
		r.Aux1, r.Text = i32(), str()
	}
	return r
}

// decode(append(r)) == r for every record type, AppendRecord writes the
// bytes of the field-by-field encoder it replaced, appends behind what
// dst holds, and TimedSize reads a timed record's length off its bytes.
func TestAppendRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 4000; i++ {
		typ := RecStateDef + RecType(i%int(numRecTypes-RecStateDef))
		rec := randomRecord(rng, typ)
		prefix := []byte("kept")
		enc, err := AppendRecord(prefix, &rec)
		if err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
		if !bytes.HasPrefix(enc, prefix) {
			t.Fatalf("%v: AppendRecord overwrote dst", typ)
		}
		enc = enc[len(prefix):]
		if want := oracleEncode(&rec); !bytes.Equal(enc, want) {
			t.Fatalf("%v: %+v encodes to\n% x\nthe field encoder gives\n% x", typ, rec, enc, want)
		}
		d := decoder{buf: enc, w: len(enc), strict: true}
		var got Record
		if err := d.readRecord(&got); err != nil || d.r != d.w {
			t.Fatalf("%v: decoding gives %v with %d bytes left", typ, err, d.w-d.r)
		}
		if !sameBlock(Block{Records: []Record{got}}, Block{Records: []Record{rec}}) {
			t.Fatalf("%v: decoded %+v, encoded %+v", typ, got, rec)
		}
		want := len(enc)
		if hasStrings(typ) {
			want = 0
		}
		if n, cut := TimedSize(enc), TimedSize(enc[:len(enc)-1]); n != want || cut != 0 {
			t.Fatalf("%v: TimedSize %d for a %d-byte record, %d cut short", typ, n, len(enc), cut)
		}
	}
}

func hasStrings(t RecType) bool {
	return t == RecStateDef || t == RecEventDef || t == RecConstDef || t == RecSrcLoc
}

// What the encoder refuses it refuses as the per-field writer did, with
// dst handed back as it was, through every entry point.
func TestAppendRejects(t *testing.T) {
	long := Record{Type: RecEventDef, Name: strings.Repeat("x", math.MaxUint16+1)}
	cases := []struct {
		name string
		rank int32
		rec  Record
		want string
	}{
		{"string one byte past the limit", 0, long, "clog2: string of 65536 bytes exceeds format limit"},
		{"long text", 0, Record{Type: RecSrcLoc, Text: long.Name}, "clog2: string of 65536 bytes exceeds format limit"},
		{"end-block marker as a record", 0, Record{Type: RecEndBlock}, "clog2: cannot write record type EndBlock"},
		{"unknown type", 0, Record{Type: numRecTypes}, "clog2: cannot write record type RecType(?)"},
		{"negative rank", -1, Record{Type: RecBareEvt}, "clog2: block with negative rank -1"},
	}
	for _, c := range cases {
		dst := []byte("kept")
		if c.rank >= 0 {
			got, err := AppendRecord(dst, &c.rec)
			if err == nil || err.Error() != c.want || string(got) != "kept" {
				t.Errorf("%s: AppendRecord gives %q, %v", c.name, got, err)
			}
		}
		good := Record{Type: RecBareEvt, ID: 1}
		got, err := AppendBlock(dst, c.rank, []Record{good, c.rec})
		if err == nil || err.Error() != c.want || string(got) != "kept" {
			t.Errorf("%s: AppendBlock gives %q, %v", c.name, got, err)
		}
		var out bytes.Buffer
		w, err := NewWriter(&out, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteBlock(c.rank, []Record{good, c.rec}); err == nil || err.Error() != c.want {
			t.Errorf("%s: WriteBlock gives %v", c.name, err)
		}
	}
}

// entriesAt makes the table entries of encoded blocks that land at offset
// at, the way the merge does: from a strict walk of them.
func entriesAt(t testing.TB, blocks []byte, at int64) []BlockMeta {
	t.Helper()
	br, err := NewStrictBlockReader(append(append(AppendHeader(nil, 1), blocks...), byte(RecEndLog)))
	if err != nil {
		t.Fatal(err)
	}
	var table Table
	if err := br.Each(func(run Block) error { table.AddRun(br, run, at-int64(HeaderSize)); return nil }); err != nil {
		t.Fatal(err)
	}
	return table.Blocks
}

// A Writer's file is the header, AppendBlock's bytes block by block, the
// end-log marker and the table a scan of those makes, whatever the blocks'
// size against its buffer, and Offset counts what it has encoded whether
// or not it was handed on. Splice puts encoded blocks where WriteBlock
// would have, and their entries where WriteBlock makes them.
func TestWriterIsHeaderBlocksMarker(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	long := strings.Repeat("x", math.MaxUint16)
	for _, perBlock := range []int{0, 1, 700, 5000} { // 5000 records: three buffers' worth
		want := AppendHeader(nil, 4)
		var spliced, written bytes.Buffer
		ws, err := NewWriter(&spliced, 4)
		if err != nil {
			t.Fatal(err)
		}
		ww, err := NewWriter(&written, 4)
		if err != nil {
			t.Fatal(err)
		}
		for rank := int32(0); rank < 4; rank++ {
			recs := make([]Record, perBlock)
			for i := range recs {
				recs[i] = randomRecord(rng, []RecType{RecBareEvt, RecCargoEvt, RecMsgEvt, RecEventDef}[i%4])
				if i == 3 { // one definition longer than the Writer's buffer
					recs[i].Color, recs[i].Name = long, long
				} else {
					recs[i].Color, recs[i].Name = "", recs[i].Name[:len(recs[i].Name)%300]
				}
			}
			start := len(want)
			if want, err = AppendBlock(want, rank, recs); err != nil {
				t.Fatal(err)
			}
			for _, w := range []*Writer{ws, ww} {
				if w.Offset() != int64(start) {
					t.Fatalf("%d records a block: rank %d starts at %d, Offset says %d", perBlock, rank, start, w.Offset())
				}
			}
			if err := ww.WriteBlock(rank, recs); err != nil {
				t.Fatal(err)
			}
			if rank%2 == 0 {
				err = ws.WriteBlock(rank, recs)
			} else {
				if ws.Splice(want[start:], nil) == nil {
					t.Fatal("Splice took blocks without their entries")
				}
				err = ws.Splice(want[start:], entriesAt(t, want[start:], int64(start)))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		want = append(want, byte(RecEndLog))
		table, err := ScanTable(bytes.NewReader(want))
		if err != nil {
			t.Fatal(err)
		}
		want = AppendTable(want, table)
		for _, w := range []*Writer{ws, ww} {
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if w.Offset() != int64(len(want)) {
				t.Fatalf("%d records a block: Offset %d after Close of a %d-byte file", perBlock, w.Offset(), len(want))
			}
		}
		if !bytes.Equal(written.Bytes(), want) || !bytes.Equal(spliced.Bytes(), want) {
			t.Fatalf("%d records a block: the Writer's file is not header + AppendBlock... + end-log + table", perBlock)
		}
		if err := ws.Splice(nil, nil); err == nil {
			t.Fatal("Splice after Close succeeded")
		}
	}
}

type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n -= len(p); f.n < 0 {
		return 0, io.ErrShortWrite
	}
	return len(p), nil
}

// The first write the underlying writer refuses fails the block being
// written and everything after it.
func TestWriterErrorIsSticky(t *testing.T) {
	recs := make([]Record, 10000)
	for i := range recs {
		recs[i] = Record{Type: RecMsgEvt, Time: float64(i)}
	}
	w, err := NewWriter(&failAfter{n: writerBufSize}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBlock(0, recs); err != io.ErrShortWrite {
		t.Fatalf("WriteBlock over a failing writer: %v", err)
	}
	if err := w.Splice([]byte{1}, nil); err != io.ErrShortWrite {
		t.Fatalf("Splice after a failed write: %v", err)
	}
	if err := w.Close(); err != io.ErrShortWrite {
		t.Fatalf("Close after a failed write: %v", err)
	}
}

// runCaps are the buffers the run contract is checked at: Each's pooled
// one (0), and NextRun's own around a record and around a run.
var runCaps = []int{0, 1, 2, RunRecords - 1, RunRecords, RunRecords + 1}

// drainRuns reassembles blocks from the runs NextRun decodes into a buffer
// of the given capacity (0: from the runs Each hands out) and checks the
// run contract on the way: a run fits the buffer and lies in it, one rank
// a block, no empty run inside a block, the block's start known from its
// first run, its end 0 until the run that is called last.
func drainRuns(t testing.TB, br *BlockReader, capacity int) (blocks []Block, bounds [][2]int64, err error) {
	open := false
	take := func(run Block, limit int) {
		start, end := br.BlockBounds()
		if len(run.Records) > limit {
			t.Fatalf("a run of %d records in room for %d", len(run.Records), limit)
		}
		if !open {
			blocks = append(blocks, Block{Rank: run.Rank, Records: []Record{}})
			bounds = append(bounds, [2]int64{start, 0})
		}
		b := &blocks[len(blocks)-1]
		if b.Rank != run.Rank || bounds[len(bounds)-1][0] != start {
			t.Fatalf("a run of rank %d at %d inside the block of rank %d at %d", run.Rank, start, b.Rank, bounds[len(bounds)-1][0])
		}
		if open && len(run.Records) == 0 {
			t.Fatal("an empty run inside a block")
		}
		b.Records = append(b.Records, run.Records...)
		bounds[len(bounds)-1][1] = end
		open = end == 0
	}
	if capacity == 0 {
		err = br.Each(func(run Block) error { take(run, RunRecords); return nil })
	} else {
		buf := make([]Record, 3, capacity+3)[3:] // the buffer need not start its array
		for err == nil {
			var run Block
			var last bool
			if run, last, err = br.NextRun(buf); err == nil {
				take(run, capacity)
				if last == open {
					t.Fatalf("last is %v on a run whose block ends at %d", last, bounds[len(bounds)-1][1])
				}
				if len(run.Records) > 0 && &run.Records[0] != &buf[:1][0] {
					t.Fatal("a run decoded outside the buffer it was given")
				}
			}
		}
		if err == io.EOF {
			err = nil
		}
	}
	if err == nil && open {
		t.Fatal("the stream ended inside a block")
	}
	return blocks, bounds, err
}

// NextRun hands out exactly the blocks Next returns, with Next's bounds,
// in runs: on blocks of every size around the run length, at every
// capacity in runCaps, from every kind of source.
func TestEachRunsAreNextsBlocks(t *testing.T) {
	sizes := []int{0, 1, RunRecords - 1, RunRecords, RunRecords + 1, 3*RunRecords + 1, 0, 2 * RunRecords}
	var file bytes.Buffer
	w, err := NewWriter(&file, len(sizes))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for rank, n := range sizes {
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = randomRecord(rng, []RecType{RecBareEvt, RecCargoEvt, RecMsgEvt, RecTimeShift, RecStateDef}[rng.Intn(5)])
			recs[i].Color, recs[i].Name = "c", "n" // keep the definitions small
		}
		if err := w.WriteBlock(int32(rank), recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want := drain(NewBlockReader(bytes.NewReader(file.Bytes())))
	if want.err != nil || len(want.blocks) != len(sizes) {
		t.Fatalf("Next: %d blocks, %v", len(want.blocks), want.err)
	}
	for name, open := range map[string]func() (*BlockReader, error){
		"plain": func() (*BlockReader, error) { return NewBlockReader(bytes.NewReader(file.Bytes())) },
		"one byte": func() (*BlockReader, error) {
			return NewBlockReader(iotest.OneByteReader(bytes.NewReader(file.Bytes())))
		},
		"strict, in memory": func() (*BlockReader, error) { return NewStrictBlockReader(file.Bytes()[:w.Table().LogSize()]) },
	} {
		for _, capacity := range runCaps {
			br, err := open()
			if err != nil {
				t.Fatal(err)
			}
			blocks, bounds, err := drainRuns(t, br, capacity)
			if err != nil || len(blocks) != len(sizes) {
				t.Fatalf("%s, capacity %d: %d blocks, %v", name, capacity, len(blocks), err)
			}
			for i := range blocks {
				if !sameBlock(blocks[i], want.blocks[i]) || bounds[i] != want.bounds[i] {
					t.Fatalf("%s, capacity %d, block %d: runs give %d records at %v, Next %d at %v",
						name, capacity, i, len(blocks[i].Records), bounds[i], len(want.blocks[i].Records), want.bounds[i])
				}
			}
		}
	}
}

// NextRun ends a block that breaks off, declares the wrong count or is not
// terminated with the error Next gives for it, whatever the capacity; a
// buffer without capacity is refused by name; Each passes fn's error on.
func TestEachErrors(t *testing.T) {
	valid := validFileBytes(t)
	cases := map[string][]byte{
		"torn mid-block":  valid[:len(valid)/2],
		"no end-log":      valid[:len(valid)-1],
		"negative count":  corruptRecordCount(t, -1),
		"count too large": corruptRecordCount(t, int32(len(sampleRecords())+1)),
		"count too small": corruptRecordCount(t, int32(len(sampleRecords())-1)),
	}
	for name, data := range cases {
		_, want := drainBlockReader(bytes.NewReader(data))
		for _, capacity := range runCaps {
			br, err := NewBlockReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			_, _, got := drainRuns(t, br, capacity)
			if want == nil || got == nil || got.Error() != want.Error() {
				t.Errorf("%s, capacity %d: runs give %v, Next %v", name, capacity, got, want)
			}
		}
	}
	br, err := NewBlockReader(bytes.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	for _, buf := range [][]Record{nil, {}, make([]Record, 4)[4:]} {
		if _, _, err := br.NextRun(buf); err == nil || !strings.Contains(err.Error(), "NextRun") {
			t.Fatalf("NextRun without room for a record: %v", err)
		}
	}
	if err := br.Each(func(Block) error { return io.ErrClosedPipe }); err != io.ErrClosedPipe {
		t.Fatalf("fn's error came back as %v", err)
	}
}

// A block NextRun began can be finished by NextReuse, which returns what is
// left of it, or forgotten by SeekTo, which starts over at a block header.
func TestHalfReadBlock(t *testing.T) {
	valid := validFileBytes(t)
	want := drain(NewBlockReader(bytes.NewReader(valid)))
	br, err := NewBlockReaderAt(bytes.NewReader(valid), want.bounds[0][0], 2)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Record, 0, 2)
	for _, seek := range []bool{false, true} {
		if run, last, err := br.NextRun(buf); err != nil || last || len(run.Records) != 2 {
			t.Fatalf("first run: %d records, last %v, %v", len(run.Records), last, err)
		}
		first, rest := want.blocks[0], 2
		if seek {
			if err := br.SeekTo(want.bounds[1][0]); err != nil {
				t.Fatal(err)
			}
			first, rest = want.blocks[1], 0
		}
		b, err := br.Next()
		if err != nil || !sameBlock(b, Block{Rank: first.Rank, Records: first.Records[rest:]}) {
			t.Fatalf("seek %v: Next after half a block gives %d records of rank %d, %v", seek, len(b.Records), b.Rank, err)
		}
		if _, end := br.BlockBounds(); end == 0 {
			t.Fatalf("seek %v: no block end after Next", seek)
		}
		if err := br.SeekTo(want.bounds[0][0]); err != nil {
			t.Fatal(err)
		}
	}
}

// The strict reader takes a Writer's bytes and nothing that merely
// decodes to the same records: its verdict is what lets the merge copy.
func TestStrictBlockReader(t *testing.T) {
	valid := validFileBytes(t)
	walk := func(log []byte) error {
		br, err := NewStrictBlockReader(log)
		if err != nil {
			return err
		}
		return br.Each(func(Block) error { return nil })
	}
	if err := walk(valid); err != nil {
		t.Fatalf("a Writer's file: %v", err)
	}
	// A 41-byte cargo, last in its block and with a record behind it:
	// lenient readers cut it to 40 and go on.
	long := rawFile(1, rawCargoEvt(1, bytes.Repeat([]byte{'c'}, MaxCargo+1)))
	padded := rawFile(2, append(rawCargoEvt(1, bytes.Repeat([]byte{'c'}, MaxCargo+1)), rawCargoEvt(2, make([]byte, MaxCargo))...))
	negative := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(negative[HeaderSize:], uint32(0xFFFFFFFE)) // rank -3 on the wire
	cases := map[string]struct {
		log     []byte
		want    string
		lenient bool
	}{
		"overlong cargo":          {long, "clog2: cargo of 41 bytes exceeds the 40 a writer emits", true},
		"overlong cargo, mid-log": {padded, "clog2: cargo of 41 bytes exceeds the 40 a writer emits", true},
		"byte after end-log":      {append(append([]byte(nil), valid...), 0), "clog2: 1 trailing bytes after the end-log marker", true},
		"negative rank":           {negative, "clog2: block with negative rank -3", true},
		"torn":                    {valid[:len(valid)-3], "clog2: truncated file: unexpected EOF", false},
		"bad magic":               {[]byte("CLOG-R0261\x01\x00\x00\x00\x00"), `clog2: bad magic "CLOG-R0261" (not a CLOG-2 file?)`, false},
	}
	for name, c := range cases {
		if err := walk(c.log); err == nil || err.Error() != c.want {
			t.Errorf("%s: strict reader gives %v, want %s", name, err, c.want)
		}
		if _, err := drainBlockReader(bytes.NewReader(c.log)); (err == nil) != c.lenient {
			t.Errorf("%s: lenient reader gives %v", name, err)
		}
	}
}

// BenchmarkAppendRecord encodes the record mix of a logged Pilot run (two
// cargo events and a message half a call) into one reused buffer.
func BenchmarkAppendRecord(b *testing.B) {
	recs := make([]Record, 3*1024)
	for i := range recs {
		switch i % 3 {
		case 0:
			recs[i] = Record{Type: RecCargoEvt, Time: float64(i), Rank: 1, ID: 8}
			recs[i].SetCargo("line: pingpong.go:88")
		case 1:
			recs[i] = Record{Type: RecMsgEvt, Time: float64(i), Rank: 1, Dir: DirSend, Aux1: 0, Aux2: 3, Aux3: 8}
		default:
			recs[i] = Record{Type: RecCargoEvt, Time: float64(i), Rank: 1, ID: 9}
		}
	}
	size := 0
	for i := range recs {
		enc, _ := AppendRecord(nil, &recs[i])
		size += len(enc)
	}
	buf := make([]byte, 0, size)
	b.SetBytes(int64(size / len(recs)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%len(recs) == 0 {
			buf = buf[:0]
		}
		buf, _ = AppendRecord(buf, &recs[i%len(recs)])
	}
}
