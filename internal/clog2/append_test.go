package clog2

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
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
	}
	return r
}

// ofBlock makes r keep the rule of a block of rank in a log of numRanks
// ranks (Block): it carries the block's rank, and a message half names a
// peer of the log. A definition must still go in a block of rank 0.
func ofBlock(r Record, rank int32, numRanks int) Record {
	r.Rank = rank
	if r.Type == RecMsgEvt {
		r.Aux1 = int32(uint32(r.Aux1) % uint32(numRanks))
	}
	return r
}

// inTimeOrder moves and restamps recs, one rank's block, to keep the rule
// of a block on its own (Block): the definitions go first, in their order,
// and a timed record stamped NaN, ±Inf or before the timed record before it
// takes that record's stamp, or 0 when it is the first. Definitions keep
// their stamps.
func inTimeOrder(recs []Record) []Record {
	slices.SortStableFunc(recs, func(a, b Record) int {
		switch {
		case a.Type.IsDef() == b.Type.IsDef():
			return 0
		case a.Type.IsDef():
			return -1
		}
		return 1
	})
	last := noStamp
	for i := range recs {
		if r := &recs[i]; !r.Type.IsDef() {
			if !inOrder(r.Time, last) {
				r.Time = max(last, 0)
			}
			last = r.Time
		}
	}
	return recs
}

// decode(append(r)) == r for every record type, AppendRecord writes the
// bytes of the field-by-field encoder it replaced, appends behind what
// dst holds, and TimedSize reads a timed record's length off its bytes.
func TestAppendRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 4000; i++ {
		typ := RecStateDef + RecType(i%int(RecTimeShift+1-RecStateDef))
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
		d := decoder{buf: enc, w: len(enc)}
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
	return t == RecStateDef || t == RecEventDef || t == RecConstDef
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
		// What AppendRecord refuses.
		{"string one byte past the limit", 0, long, "clog2: string of 65536 bytes exceeds format limit"},
		{"the reserved type 9", 0, Record{Type: RecTimeShift + 1}, "clog2: cannot write record type RecType(?)"},
		{"end-block marker as a record", 0, Record{Type: RecEndBlock}, "clog2: cannot write record type EndBlock"},
		{"block-start marker as a record", 0, Record{Type: RecBeginBlock}, "clog2: cannot write record type BeginBlock"},
		{"unknown type", 0, Record{Type: numRecTypes}, "clog2: cannot write record type RecType(?)"},
		// The rule of a block (Block), which AppendRecord alone does not see.
		{"negative rank", -1, Record{Type: RecBareEvt, Rank: -1}, "clog2: a block of rank -1 in a log of 1048576 ranks"},
		{"rank past MaxRanks", MaxRanks, Record{Type: RecBareEvt, Rank: MaxRanks}, "clog2: a block of rank 1048576 in a log of 1048576 ranks"},
		{"record of another rank", 0, Record{Type: RecBareEvt, Rank: 1}, "clog2: a BareEvt record of rank 1 in a block of rank 0"},
		{"definition of another rank", 0, Record{Type: RecStateDef, Rank: 1}, "clog2: a StateDef record of rank 1 in a block of rank 0"},
		{"definition outside rank 0", 1, Record{Type: RecEventDef, Rank: 1}, "clog2: a EventDef record in a block of rank 1: definitions sit in rank 0's blocks"},
		{"peer past MaxRanks", 0, Record{Type: RecMsgEvt, Aux1: MaxRanks}, "clog2: a message half of rank 0 names peer rank 1048576, outside [0,1048576)"},
		{"negative peer", 0, Record{Type: RecMsgEvt, Aux1: -1}, "clog2: a message half of rank 0 names peer rank -1, outside [0,1048576)"},
		{"backward in a block", 0, Record{Type: RecCargoEvt, Time: -0.5}, "clog2: a CargoEvt record of rank 0 stamped -0.5, before its rank's 0"},
		{"stamped NaN", 0, Record{Type: RecMsgEvt, Time: math.NaN()}, "clog2: a MsgEvt record of rank 0 stamped NaN"},
		{"stamped +Inf", 0, Record{Type: RecTimeShift, Time: math.Inf(1)}, "clog2: a TimeShift record of rank 0 stamped +Inf"},
		{"stamped -Inf", 0, Record{Type: RecBareEvt, Time: math.Inf(-1)}, "clog2: a BareEvt record of rank 0 stamped -Inf"},
	}
	for _, c := range cases {
		dst := []byte("kept")
		// AppendRecord refuses what is wrong with a record alone; the
		// rule's refusals ("clog2: a ...") need the block it does not see.
		if !strings.HasPrefix(c.want, "clog2: a ") {
			got, err := AppendRecord(dst, &c.rec)
			if err == nil || err.Error() != c.want || string(got) != "kept" {
				t.Errorf("%s: AppendRecord gives %q, %v", c.name, got, err)
			}
		}
		good := Record{Type: RecBareEvt, Rank: c.rank, ID: 1}
		recs := []Record{good, c.rec}
		if c.rec.Type.IsDef() { // definitions lead the log
			recs[0], recs[1] = c.rec, good
		}
		got, err := AppendBlock(dst, c.rank, recs)
		if err == nil || err.Error() != c.want || string(got) != "kept" {
			t.Errorf("%s: AppendBlock gives %q, %v", c.name, got, err)
		}
		var out bytes.Buffer
		w, err := NewWriter(&out, MaxRanks)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteBlock(c.rank, recs); err == nil || err.Error() != c.want {
			t.Errorf("%s: WriteBlock gives %v", c.name, err)
		}
		if w.Offset() != int64(HeaderSize) {
			t.Errorf("%s: WriteBlock wrote %d bytes of a block it refused", c.name, w.Offset()-int64(HeaderSize))
		}
	}
	// A Writer bounds ranks and peers by its header's rank count, on records
	// and on pages alike.
	msg := Record{Type: RecMsgEvt, Time: 1, Rank: 1, Dir: DirSend, Aux1: 2}
	page, _ := AppendRecord(nil, &msg)
	for _, c := range []struct {
		rank  int32
		recs  []Record
		pages [][]byte
		want  string
	}{
		{2, nil, nil, "clog2: a block of rank 2 in a log of 2 ranks"},
		{1, []Record{msg}, nil, "clog2: a message half of rank 1 names peer rank 2, outside [0,2)"},
		{1, nil, [][]byte{page}, "clog2: a message half of rank 1 names peer rank 2, outside [0,2) (at byte 0)"},
		{0, nil, [][]byte{page}, "clog2: a MsgEvt record of rank 1 in a block of rank 0 (at byte 0)"},
	} {
		var out bytes.Buffer
		w, err := NewWriter(&out, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteBlock(c.rank, c.recs, c.pages...); err == nil || err.Error() != c.want {
			t.Errorf("WriteBlock(%d, %d records, %d pages) gives %v, want %s", c.rank, len(c.recs), len(c.pages), err, c.want)
		}
		if w.Offset() != int64(HeaderSize) {
			t.Errorf("WriteBlock wrote %d bytes of a block it refused", w.Offset()-int64(HeaderSize))
		}
	}
	// A Writer holds a rank's block to the rank's last stamp in the blocks
	// before it, whatever lies between them, on records and on pages alike;
	// a Cut holds each page to the pages added before it. A definition's
	// stamp is no stamp.
	at := func(rank int32, t float64) Record { return Record{Type: RecBareEvt, Rank: rank, Time: t} }
	back, _ := AppendRecord(nil, &Record{Type: RecBareEvt, Rank: 1, Time: 0.5})
	const backWant = "clog2: a BareEvt record of rank 1 stamped 0.5, before its rank's 0.75"
	for _, c := range []struct {
		recs  []Record
		pages [][]byte
		want  string
	}{
		{[]Record{at(1, 0.5)}, nil, backWant},
		{nil, [][]byte{back}, backWant + " (at byte 0)"},
	} {
		var out bytes.Buffer
		w, err := NewWriter(&out, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []Block{
			{0, []Record{{Type: RecStateDef, Time: 9}}},
			{0, []Record{{Type: RecStateDef, Time: -9}, at(0, 0)}},
			{1, []Record{at(1, 0.5), at(1, 0.75)}},
			{0, []Record{at(0, 0)}},
		} {
			if err := w.WriteBlock(b.Rank, b.Records); err != nil {
				t.Fatal(err)
			}
		}
		size := w.Offset()
		if err := w.WriteBlock(1, c.recs, c.pages...); err == nil || err.Error() != c.want {
			t.Errorf("backward across two blocks of a rank, %d pages: WriteBlock gives %v, want %s", len(c.pages), err, c.want)
		}
		if w.Offset() != size {
			t.Errorf("WriteBlock wrote %d bytes of a block it refused", w.Offset()-size)
		}
		if err := w.WriteBlock(1, []Record{at(1, 0.75)}); err != nil {
			t.Errorf("a block stamped at the rank's last stamp: %v", err)
		}
	}
	ahead, _ := AppendRecord(nil, &Record{Type: RecBareEvt, Rank: 1, Time: 0.75})
	c := NewCut(1, 2, 2, nil)
	if err := c.Add(ahead); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(back); err == nil || err.Error() != backWant+" (at byte 0)" {
		t.Errorf("a page that goes back before the page added before it: Cut.Add gives %v", err)
	}

	// Definitions lead the log: a Writer refuses a definition after a timed
	// record of its block or of any block it wrote before, a record's or a
	// page's, whatever the rank, and a Cut's lead as it writes it; nothing of
	// the block is written.
	def := Record{Type: RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Name: "s"}
	const defWant = "clog2: a StateDef record after the log's first timed record"
	page0, _ := AppendRecord(nil, &Record{Type: RecBareEvt, Time: 1})
	page1, _ := AppendRecord(nil, &Record{Type: RecBareEvt, Rank: 1, Time: 1})
	for _, c := range []struct {
		name   string
		before []Block
		pages  [][]byte // of the last block before
		recs   []Record // of rank 0, refused
	}{
		{"within a block", nil, nil, []Record{def, at(0, 1), def}},
		{"across two blocks of rank 0", []Block{{0, []Record{def, at(0, 1)}}}, nil, []Record{def}},
		{"after a page of rank 0", []Block{{0, []Record{def}}}, [][]byte{page0}, []Record{def}},
		{"after another rank's block", []Block{{0, []Record{def}}, {1, []Record{at(1, 1)}}}, nil, []Record{def}},
		{"after another rank's page", []Block{{0, []Record{def}}, {1, nil}}, [][]byte{page1}, []Record{def}},
	} {
		var out bytes.Buffer
		w, err := NewWriter(&out, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range c.before {
			var pages [][]byte
			if i == len(c.before)-1 {
				pages = c.pages
			}
			if err := w.WriteBlock(b.Rank, b.Records, pages...); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		size := w.Offset()
		if err := w.WriteBlock(0, c.recs); err == nil || err.Error() != defWant {
			t.Errorf("a definition after a timed record, %s: WriteBlock gives %v, want %s", c.name, err, defWant)
		}
		if err := w.WriteCut(NewCut(0, 2, 512, c.recs)); err == nil || err.Error() != defWant {
			t.Errorf("a definition after a timed record, %s: WriteCut of the lead gives %v, want %s", c.name, err, defWant)
		}
		if w.Offset() != size {
			t.Errorf("a definition after a timed record, %s: %d bytes of a refused block written", c.name, w.Offset()-size)
		}
		if c.before == nil {
			if got, err := AppendBlock([]byte("kept"), 0, c.recs); err == nil || err.Error() != defWant || string(got) != "kept" {
				t.Errorf("a definition after a timed record, %s: AppendBlock gives %q, %v", c.name, got, err)
			}
		}
	}

	// A Cut's lead longer than a block is held to the rule whole, and before
	// the pages' first record, before its first block is written: a lead
	// that breaks the rule in its second block, or one stamped after the
	// pages, leaves 0 bytes written.
	for _, c := range []struct {
		name  string
		lead  []Record
		pages [][]byte
		want  string
	}{
		{"a definition in the lead's second block", []Record{def, at(0, 1), def}, nil, defWant},
		{"a lead stamped after the pages", []Record{def, at(0, 0.5), at(0, 2)}, [][]byte{page0},
			"clog2: a BareEvt record of rank 0 stamped 1, before its rank's 2"},
	} {
		w, err := NewWriter(&bytes.Buffer{}, 2)
		if err != nil {
			t.Fatal(err)
		}
		cut := NewCut(0, 2, 2, c.lead)
		for _, p := range c.pages {
			if err := cut.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.WriteCut(cut); err == nil || err.Error() != c.want {
			t.Errorf("%s: WriteCut gives %v, want %s", c.name, err, c.want)
		}
		if w.Offset() != int64(HeaderSize) {
			t.Errorf("%s: WriteCut wrote %d bytes of a Cut it refused", c.name, w.Offset()-int64(HeaderSize))
		}
	}

	// A block holds at most MaxBlockRecords records, whatever its rank: a
	// bigger one is refused with dst as it was, a full one is written.
	w, err := NewWriter(io.Discard, MaxRanks)
	if err != nil {
		t.Fatal(err)
	}
	full := make([]Record, MaxBlockRecords+1)
	for i := range full {
		full[i] = Record{Type: RecBareEvt, Time: float64(i), Rank: 255, ID: 2}
	}
	want := fmt.Sprintf("clog2: a block of %d records, past MaxBlockRecords (%d)", MaxBlockRecords+1, MaxBlockRecords)
	if err := w.WriteBlock(255, full); err == nil || err.Error() != want {
		t.Errorf("WriteBlock of %d records gives %v, want %s", len(full), err, want)
	}
	if got, err := AppendBlock([]byte("kept"), 255, full); err == nil || err.Error() != want || string(got) != "kept" {
		t.Errorf("AppendBlock of %d records gives %d bytes, %v", len(full), len(got), err)
	}
	for _, rank := range []int32{255, 256, MaxRanks - 1} {
		for i := range full {
			full[i].Rank = rank
		}
		if err := w.WriteBlock(rank, full[:MaxBlockRecords]); err != nil {
			t.Errorf("rank %d: a full block: %v", rank, err)
		}
	}
}

// A Writer's file is the header, AppendBlock's bytes block by block, the
// end-log marker and the table a scan of those makes, whatever the blocks'
// size against its buffer, and Offset counts what it has encoded whether
// or not it was handed on.
func TestWriterIsHeaderBlocksMarker(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	long := strings.Repeat("x", math.MaxUint16)
	for _, perBlock := range []int{0, 1, 700, MaxBlockRecords} { // a full block: three buffers' worth
		want := AppendHeader(nil, 4)
		var written bytes.Buffer
		ww, err := NewWriter(&written, 4)
		if err != nil {
			t.Fatal(err)
		}
		for rank := int32(0); rank < 4; rank++ {
			recs := make([]Record, perBlock)
			types := []RecType{RecBareEvt, RecCargoEvt, RecMsgEvt, RecEventDef}
			if rank != 0 { // definitions sit in rank 0's blocks
				types[3] = RecTimeShift
			}
			for i := range recs {
				recs[i] = ofBlock(randomRecord(rng, types[i%4]), rank, 4)
				if i == 3 { // one definition longer than the Writer's buffer
					recs[i].Color, recs[i].Name = long, long
				} else {
					recs[i].Color, recs[i].Name = "", recs[i].Name[:len(recs[i].Name)%300]
				}
			}
			inTimeOrder(recs)
			start := len(want)
			if want, err = AppendBlock(want, rank, recs); err != nil {
				t.Fatal(err)
			}
			if ww.Offset() != int64(start) {
				t.Fatalf("%d records a block: rank %d starts at %d, Offset says %d", perBlock, rank, start, ww.Offset())
			}
			if err := ww.WriteBlock(rank, recs); err != nil {
				t.Fatal(err)
			}
		}
		want = append(want, byte(RecEndLog))
		table, err := ScanTable(bytes.NewReader(want))
		if err != nil {
			t.Fatal(err)
		}
		want = AppendTable(want, table)
		if err := ww.Close(); err != nil {
			t.Fatal(err)
		}
		if ww.Offset() != int64(len(want)) {
			t.Fatalf("%d records a block: Offset %d after Close of a %d-byte file", perBlock, ww.Offset(), len(want))
		}
		if !bytes.Equal(written.Bytes(), want) {
			t.Fatalf("%d records a block: the Writer's file is not header + AppendBlock... + end-log + table", perBlock)
		}
		if err := ww.WriteBlock(0, nil); err == nil {
			t.Fatal("WriteBlock after Close succeeded")
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
	recs := make([]Record, MaxBlockRecords)
	for i := range recs {
		recs[i] = Record{Type: RecMsgEvt} // one stamp: the blocks stay in time order
	}
	w, err := NewWriter(&failAfter{n: 2 * writerBufSize}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3 && err == nil; i++ { // 106 KB a block: the writer fails within three
		err = w.WriteBlock(0, recs)
	}
	if err != io.ErrShortWrite {
		t.Fatalf("WriteBlock over a failing writer: %v", err)
	}
	if err := w.WriteBlock(0, recs[:1]); err != io.ErrShortWrite {
		t.Fatalf("WriteBlock after a failed write: %v", err)
	}
	if err := w.Close(); err != io.ErrShortWrite {
		t.Fatalf("Close after a failed write: %v", err)
	}
}

// bufCaps are the buffers NextReuse is checked with: none, and room around
// a record and around a full block.
var bufCaps = []int{0, 1, 2, MaxBlockRecords - 1, MaxBlockRecords, MaxBlockRecords + 1}

// drainWith is drain through Each (capacity < 0), with the bounds
// BlockBounds gives inside fn, or through NextReuse into one buffer of the
// given capacity, which it must use while a block fits it; blocks are
// copied.
func drainWith(t testing.TB, br *BlockReader, capacity int) (d drained) {
	keep := func(b Block) error {
		s, e := br.BlockBounds()
		d.blocks = append(d.blocks, Block{Rank: b.Rank, Records: slices.Clone(b.Records)})
		d.bounds = append(d.bounds, [2]int64{s, e})
		return nil
	}
	if capacity < 0 {
		d.err = br.Each(keep)
		return d
	}
	buf := make([]Record, 3, capacity+3)[3:] // the buffer need not start its array
	for {
		b, err := br.NextReuse(buf)
		if err != nil {
			if err != io.EOF {
				d.err = err
			}
			return d
		}
		if n := len(b.Records); n > 0 && n <= capacity && &b.Records[0] != &buf[:1][0] {
			t.Fatalf("a block of %d records decoded outside a buffer with room for %d", n, capacity)
		}
		keep(b)
	}
}

// Each hands out exactly the blocks NextReuse returns, with NextReuse's
// bounds, and NextReuse returns the same blocks into a buffer of any
// capacity: on blocks of every size up to MaxBlockRecords, from every kind
// of source.
func TestEachIsNextReuse(t *testing.T) {
	sizes := []int{0, 1, 2, MaxBlockRecords - 1, MaxBlockRecords, 0, MaxBlockRecords / 2}
	var file bytes.Buffer
	w, err := NewWriter(&file, len(sizes))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for rank, n := range sizes {
		recs := make([]Record, n)
		types := []RecType{RecBareEvt, RecCargoEvt, RecMsgEvt, RecTimeShift, RecStateDef}
		if rank != 0 { // definitions sit in rank 0's blocks
			types = types[:4]
		}
		for i := range recs {
			recs[i] = ofBlock(randomRecord(rng, types[rng.Intn(len(types))]), int32(rank), len(sizes))
			recs[i].Color, recs[i].Name = "c", "n" // keep the definitions small
		}
		if err := w.WriteBlock(int32(rank), inTimeOrder(recs)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want := drain(NewBlockReader(bytes.NewReader(file.Bytes())))
	if want.err != nil || len(want.blocks) != len(sizes) {
		t.Fatalf("NextReuse: %d blocks, %v", len(want.blocks), want.err)
	}
	for name, open := range map[string]func() (*BlockReader, error){
		"plain": func() (*BlockReader, error) { return NewBlockReader(bytes.NewReader(file.Bytes())) },
		"one byte": func() (*BlockReader, error) {
			return NewBlockReader(iotest.OneByteReader(bytes.NewReader(file.Bytes())))
		},
	} {
		for _, capacity := range append([]int{-1}, bufCaps...) {
			br, err := open()
			if err != nil {
				t.Fatal(err)
			}
			compareDrained(t, fmt.Sprintf("%s, capacity %d (-1: Each)", name, capacity), drainWith(t, br, capacity), want, false)
		}
	}
}

// Each ends with the error NextReuse gives for a block that breaks off,
// declares the wrong count or is not terminated, whatever the capacity,
// and hands over no record of that block; it passes fn's error on.
func TestEachErrors(t *testing.T) {
	valid := validFileBytes(t)
	cases := map[string][]byte{
		"torn mid-block":  valid[:len(valid)/2],
		"no end-log":      valid[:len(valid)-1],
		"negative count":  corruptRecordCount(t, -1),
		"count too large": corruptRecordCount(t, int32(len(sampleRecords())+1)),
		"count too small": corruptRecordCount(t, int32(len(sampleRecords())-1)),
		"count past max":  corruptRecordCount(t, MaxBlockRecords+1),
	}
	for name, data := range cases {
		want := drain(NewBlockReader(bytes.NewReader(data)))
		if want.err == nil {
			t.Fatalf("%s: NextReuse reads it", name)
		}
		for _, capacity := range append([]int{-1}, bufCaps...) {
			br, err := NewBlockReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			got := drainWith(t, br, capacity)
			if got.err == nil || got.err.Error() != want.err.Error() || len(got.blocks) != len(want.blocks) {
				t.Errorf("%s, capacity %d (-1: Each): %d blocks and %v, NextReuse %d and %v", name, capacity, len(got.blocks), got.err, len(want.blocks), want.err)
			}
		}
	}
	br, err := NewBlockReader(bytes.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	if err := br.Each(func(Block) error { return io.ErrClosedPipe }); err != io.ErrClosedPipe {
		t.Fatalf("fn's error came back as %v", err)
	}
}

// SeekTo starts over at a block header, from the block after the one read
// or from the one before it.
func TestSeekTo(t *testing.T) {
	valid := validFileBytes(t)
	want := drain(NewBlockReader(bytes.NewReader(valid)))
	br, err := NewBlockReaderAt(bytes.NewReader(valid), want.bounds[0][0], 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 0, 0} {
		if err := br.SeekTo(want.bounds[i][0]); err != nil {
			t.Fatal(err)
		}
		b, err := br.NextReuse(nil)
		if s, e := br.BlockBounds(); err != nil || !sameBlock(b, want.blocks[i]) || [2]int64{s, e} != want.bounds[i] {
			t.Fatalf("block %d after SeekTo: %d records of rank %d at [%d,%d), %v", i, len(b.Records), b.Rank, s, e, err)
		}
	}
	if _, err := br.NextReuse(nil); err != nil {
		t.Fatalf("the block after: %v", err)
	}
	if _, err := br.NextReuse(nil); err != io.EOF {
		t.Fatalf("after the last block: %v", err)
	}
}

// checkTimed takes the timed records a Logger encodes, of its rank, as
// many as it is asked for, and refuses by name whatever a Writer would
// not write as it lies: a cargo past MaxCargo (other readers cut it), a
// marker, a record that is not timed, a record cut short, a record of
// another rank and a message half whose peer is no rank of the log.
func TestCheckTimed(t *testing.T) {
	var page []byte
	sizes := []int{0}
	for _, r := range sampleRecords() {
		if TimedSize(oracleEncode(&r)) > 0 {
			r.Rank = 3
			page, _ = AppendRecord(page, &r)
			sizes = append(sizes, len(page))
		}
	}
	if len(sizes) < 5 {
		t.Fatalf("%d timed sample records", len(sizes)-1)
	}
	for max := 0; max <= len(sizes); max++ {
		want := min(max, len(sizes)-1)
		if n, size, err := checkTimed(page, 3, 4, max, &BlockMeta{Rank: 3}, stamp(noStamp)); n != want || size != sizes[want] || err != nil {
			t.Fatalf("at most %d records: %d records in %d bytes, %v; want %d in %d", max, n, size, err, want, sizes[want])
		}
	}
	long := rawCargoEvt(1, bytes.Repeat([]byte{'c'}, MaxCargo+1))
	def, _ := AppendRecord(nil, &Record{Type: RecStateDef, Name: "A"})
	farPeer, _ := AppendRecord(nil, &Record{Type: RecMsgEvt, Rank: 3, Dir: DirSend, Aux1: 4})
	cases := map[string]struct {
		p    []byte
		want string
	}{
		"overlong cargo":           {long, "clog2: cargo of 41 bytes exceeds the 40 a writer emits"},
		"overlong cargo, mid-page": {append(page[:sizes[2]:sizes[2]], long...), "clog2: cargo of 41 bytes exceeds the 40 a writer emits"},
		"end-block marker":         {append(page[:sizes[1]:sizes[1]], byte(RecEndBlock)), fmt.Sprintf("clog2: marker EndBlock at byte %d among records", sizes[1])},
		"end-log marker":           {[]byte{byte(RecEndLog)}, "clog2: marker EndLog at byte 0 among records"},
		"a definition":             {def, "clog2: StateDef record at byte 0 is not a timed record"},
		"not a record":             {[]byte("hello"), "clog2: RecType(?) record at byte 0 is not a timed record"},
		"torn":                     {page[:len(page)-1], fmt.Sprintf("clog2: %v record at byte %d cut short by the end at %d", RecType(page[sizes[len(sizes)-2]]), sizes[len(sizes)-2], len(page)-1)},
		"another rank":             {append(page[:sizes[1]:sizes[1]], rawCargoEvt(1, nil)...), fmt.Sprintf("clog2: a CargoEvt record of rank 0 in a block of rank 3 (at byte %d)", sizes[1])},
		"back in time":             {append(page[:sizes[2]:sizes[2]], page[:sizes[1]]...), fmt.Sprintf("clog2: a BareEvt record of rank 3 stamped 1.5, before its rank's 2.25 (at byte %d)", sizes[2])},
		"stamped NaN":              {append(page[:sizes[1]:sizes[1]], rawTimed(RecBareEvt, math.NaN(), 3)...), fmt.Sprintf("clog2: a BareEvt record of rank 3 stamped NaN (at byte %d)", sizes[1])},
		"stamped -Inf first":       {rawTimed(RecMsgEvt, math.Inf(-1), 3), "clog2: a MsgEvt record of rank 3 stamped -Inf (at byte 0)"},
		"a peer past the ranks":    {farPeer, "clog2: a message half of rank 3 names peer rank 4, outside [0,4) (at byte 0)"},
	}
	for name, c := range cases {
		n, size, err := checkTimed(c.p, 3, 4, len(c.p), &BlockMeta{Rank: 3}, stamp(noStamp))
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: checkTimed gives %v, want %s", name, err, c.want)
		}
		if size > len(c.p) || n > 0 && size == 0 {
			t.Errorf("%s: %d records in %d of %d bytes", name, n, size, len(c.p))
		}
	}
}

// stamp is a rank's last stamp, for checkTimed to hold a page to.
func stamp(last float64) *float64 { return &last }

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
