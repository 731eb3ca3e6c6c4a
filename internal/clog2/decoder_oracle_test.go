package clog2

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// oracleReader is the decoder BlockReader had before it owned its buffer:
// every field fetched with its own io.ReadFull through a bufio.Reader,
// every record returned by value and appended. It is kept, unchanged in
// behaviour, as the reference the slice decoder must match record for
// record, bound for bound and error class for error class. Its bufio
// buffer is decodeBufSize so that a source failing on its Nth Read fails
// both readers at about the same byte.
type oracleReader struct {
	r                  *bufio.Reader
	rs                 io.ReadSeeker
	err                error
	off                int64
	done               bool
	lastStart, lastEnd int64
	num                [8]byte
	scratch            []byte
	cargo              [MaxCargo]byte
}

func newOracleReader(r io.Reader) (*oracleReader, error) {
	br := bufio.NewReaderSize(r, decodeBufSize)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("clog2: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("clog2: bad magic %q (not a CLOG-2 file?)", magic)
	}
	var nranks int32
	if err := binary.Read(br, binary.LittleEndian, &nranks); err != nil {
		return nil, fmt.Errorf("clog2: reading rank count: %w", err)
	}
	if nranks < 1 || nranks > MaxRanks {
		return nil, fmt.Errorf("clog2: implausible rank count %d", nranks)
	}
	return &oracleReader{r: br, off: int64(HeaderSize)}, nil
}

func newOracleReaderAt(rs io.ReadSeeker, offset int64) (*oracleReader, error) {
	if _, err := rs.Seek(offset, io.SeekStart); err != nil {
		return nil, err
	}
	return &oracleReader{r: bufio.NewReaderSize(rs, decodeBufSize), rs: rs, off: offset}, nil
}

func (d *oracleReader) SeekTo(offset int64) error {
	if _, err := d.rs.Seek(offset, io.SeekStart); err != nil {
		return err
	}
	d.r.Reset(d.rs)
	d.off, d.err, d.done = offset, nil, false
	return nil
}

func (d *oracleReader) BlockBounds() (start, end int64) { return d.lastStart, d.lastEnd }

// NextReuse is the oracle's block read, under BlockReader's name; it
// ignores buf and returns fresh records every time.
func (d *oracleReader) NextReuse([]Record) (Block, error) {
	if d.done {
		return Block{}, io.EOF
	}
	b, err := d.r.Peek(1)
	if err != nil {
		return Block{}, fmt.Errorf("clog2: truncated file: %w", err)
	}
	start := d.off
	if b[0] == uint8(RecEndLog) {
		d.getByte()
		if d.err != nil {
			return Block{}, d.err
		}
		d.done = true
		return Block{}, io.EOF
	}
	if t := RecType(d.getByte()); d.err == nil && t != RecBeginBlock {
		return Block{}, fmt.Errorf("clog2: %v where a block begins", t)
	}
	rank := d.get32()
	n := d.get32()
	if d.err != nil {
		return Block{}, d.err
	}
	if n < 0 || n > MaxBlockRecords {
		return Block{}, fmt.Errorf("clog2: a block of rank %d declares %d records (MaxBlockRecords is %d)", rank, n, MaxBlockRecords)
	}
	recs := make([]Record, 0, n)
	for i := int32(0); i < n; i++ {
		rec, err := d.readRecord()
		if err != nil {
			return Block{}, err
		}
		recs = append(recs, rec)
	}
	if tt := RecType(d.getByte()); d.err == nil && tt != RecEndBlock {
		return Block{}, fmt.Errorf("clog2: block for rank %d not terminated (got %v)", rank, tt)
	}
	if d.err != nil {
		return Block{}, d.err
	}
	d.lastStart, d.lastEnd = start, d.off
	return Block{Rank: rank, Records: recs}, nil
}

func (d *oracleReader) readRecord() (Record, error) {
	var r Record
	r.Type = RecType(d.getByte())
	r.Time = d.getF64()
	r.Rank = d.get32()
	switch r.Type {
	case RecStateDef:
		r.ID = d.get32()
		r.Aux1 = d.get32()
		r.Aux2 = d.get32()
		r.Color = d.getStr()
		r.Name = d.getStr()
	case RecEventDef:
		r.ID = d.get32()
		r.Color = d.getStr()
		r.Name = d.getStr()
	case RecConstDef:
		r.ID = d.get32()
		r.Aux1 = d.get32()
		r.Name = d.getStr()
	case RecBareEvt:
		r.ID = d.get32()
	case RecCargoEvt:
		r.ID = d.get32()
		d.getCargo(&r)
	case RecMsgEvt:
		r.Dir = d.getByte()
		r.Aux1 = d.get32()
		r.Aux2 = d.get32()
		r.Aux3 = d.get32()
	case RecTimeShift:
		r.Shift = d.getF64()
	default:
		if d.err == nil {
			d.err = fmt.Errorf("clog2: unknown record type %d", r.Type)
		}
	}
	return r, d.err
}

func (d *oracleReader) readFull(p []byte) bool {
	if d.err != nil {
		return false
	}
	if _, err := io.ReadFull(d.r, p); err != nil {
		d.err = fmt.Errorf("clog2: truncated file: %w", err)
		return false
	}
	d.off += int64(len(p))
	return true
}

func (d *oracleReader) getByte() uint8 {
	if !d.readFull(d.num[:1]) {
		return 0
	}
	return d.num[0]
}

func (d *oracleReader) get32() int32 {
	if !d.readFull(d.num[:4]) {
		return 0
	}
	return int32(binary.LittleEndian.Uint32(d.num[:4]))
}

func (d *oracleReader) getF64() float64 {
	if !d.readFull(d.num[:8]) {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(d.num[:8]))
}

func (d *oracleReader) getCargo(r *Record) {
	if !d.readFull(d.num[:2]) {
		return
	}
	n := int(binary.LittleEndian.Uint16(d.num[:2]))
	keep := min(n, MaxCargo)
	if !d.readFull(d.cargo[:keep]) {
		return
	}
	copy(r.Cargo[:], d.cargo[:keep])
	r.CargoLen = uint8(keep)
	if n > keep {
		if _, err := d.r.Discard(n - keep); err != nil {
			d.err = fmt.Errorf("clog2: truncated file: %w", err)
			return
		}
		d.off += int64(n - keep)
	}
}

func (d *oracleReader) getStr() string {
	if !d.readFull(d.num[:2]) {
		return ""
	}
	n := int(binary.LittleEndian.Uint16(d.num[:2]))
	if n == 0 {
		return ""
	}
	if cap(d.scratch) < n {
		d.scratch = make([]byte, n)
	}
	if !d.readFull(d.scratch[:n]) {
		return ""
	}
	return string(d.scratch[:n])
}

// blockSource is what the two readers share.
type blockSource interface {
	NextReuse(buf []Record) (Block, error)
	BlockBounds() (start, end int64)
}

// drained is everything a reader said about a stream: the blocks and
// bounds before the first error, and that error (nil for a clean end).
type drained struct {
	blocks []Block
	bounds [][2]int64
	err    error
}

func drain(src blockSource, openErr error) drained {
	if openErr != nil {
		return drained{err: openErr}
	}
	var d drained
	for {
		b, err := src.NextReuse(nil)
		if err == io.EOF {
			return d
		}
		if err != nil {
			d.err = err
			return d
		}
		s, e := src.BlockBounds()
		d.blocks = append(d.blocks, b)
		d.bounds = append(d.bounds, [2]int64{s, e})
	}
}

// errClass is how far the contract pins an error: nil, wrapping io.EOF,
// wrapping io.ErrUnexpectedEOF, or anything else.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, io.EOF):
		return "EOF"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "ErrUnexpectedEOF"
	case errors.Is(err, io.ErrNoProgress):
		return "ErrNoProgress"
	}
	return "other"
}

// sameAsOracle decodes data twice, each time through a fresh wrap of a
// bytes.Reader, and requires the slice decoder to agree with the oracle.
// Where the source itself fails mid-stream (prefixOnly) the two may stop
// a block apart, so only the blocks both returned are compared.
func sameAsOracle(t *testing.T, name string, data []byte, wrap func(io.Reader) io.Reader, prefixOnly bool) {
	t.Helper()
	br, err := NewBlockReader(wrap(bytes.NewReader(data)))
	got := drain(br, err)
	or, err := newOracleReader(wrap(bytes.NewReader(data)))
	want := drain(or, err)
	compareDrained(t, name, got, want, prefixOnly)
}

func compareDrained(t *testing.T, name string, got, want drained, prefixOnly bool) {
	t.Helper()
	if g, w := errClass(got.err), errClass(want.err); g != w {
		t.Fatalf("%s: error class %s (%v), oracle %s (%v)", name, g, got.err, w, want.err)
	}
	n := len(want.blocks)
	if prefixOnly {
		n = min(n, len(got.blocks))
	} else if len(got.blocks) != n {
		t.Fatalf("%s: %d blocks, oracle %d", name, len(got.blocks), n)
	}
	for i := 0; i < n; i++ {
		if got.bounds[i] != want.bounds[i] {
			t.Fatalf("%s: block %d bounds %v, oracle %v", name, i, got.bounds[i], want.bounds[i])
		}
		if !sameBlock(got.blocks[i], want.blocks[i]) {
			t.Fatalf("%s: block %d differs from the oracle's", name, i)
		}
	}
}

// sameBlock is reflect.DeepEqual with a record's two floats taken by their
// bits: hostile bytes decode to a NaN timestamp as readily as to any
// other, and DeepEqual holds a NaN unequal to itself (the fuzzer found
// one in PR 16's make ci: testdata/fuzz/FuzzReadFile/75eb05c1e400d36a).
func sameBlock(a, b Block) bool {
	if a.Rank != b.Rank || len(a.Records) != len(b.Records) || (a.Records == nil) != (b.Records == nil) {
		return false
	}
	for i := range a.Records {
		x, y := a.Records[i], b.Records[i]
		if math.Float64bits(x.Time) != math.Float64bits(y.Time) || math.Float64bits(x.Shift) != math.Float64bits(y.Shift) {
			return false
		}
		x.Time, x.Shift, y.Time, y.Shift = 0, 0, 0, 0
		if x != y {
			return false
		}
	}
	return true
}

// sourceShapes are the ways a source may hand its bytes over.
var sourceShapes = []struct {
	name       string
	wrap       func(io.Reader) io.Reader
	prefixOnly bool
}{
	{"plain", func(r io.Reader) io.Reader { return r }, false},
	{"one-byte", iotest.OneByteReader, false},
	{"half", iotest.HalfReader, false},
	{"data-err", iotest.DataErrReader, false},
	{"timeout", iotest.TimeoutReader, true},
}

func sameAsOracleAllShapes(t *testing.T, name string, data []byte) {
	t.Helper()
	for _, sh := range sourceShapes {
		sameAsOracle(t, name+"/"+sh.name, data, sh.wrap, sh.prefixOnly)
	}
}

// bigLog generates a multi-rank, multi-block log of about n records with
// every record type in it, cargo of every length and blocks of uneven
// size, so block and record boundaries land everywhere in the buffer.
func bigLog(t testing.TB, n int, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 8)
	if err != nil {
		t.Fatal(err)
	}
	for written := 0; written < n; {
		// Definitions lead the log (Block): about its first twentieth is
		// rank 0's definitions, of every kind and size.
		lead := written < n/20
		rank := int32(rng.Intn(8))
		if lead {
			rank = 0
		}
		recs := make([]Record, 1+rng.Intn(3000))
		for i := range recs {
			r := Record{Time: float64(written+i) * 1e-6, Rank: rank}
			k := rng.Intn(40)
			switch {
			case lead:
				k = []int{0, 1, 2, 4}[k%4]
			case k <= 4 && k != 3:
				k = 5
			}
			switch {
			case k == 0:
				r.Type, r.ID, r.Aux1, r.Aux2 = RecStateDef, int32(i), 2, 3
				r.Color, r.Name = "red", strings.Repeat("n", rng.Intn(300))
			case k == 1:
				r.Type, r.ID, r.Color, r.Name = RecEventDef, 1000, "yellow", "Bubble"
			case k == 2:
				r.Type, r.ID, r.Aux1, r.Name = RecConstDef, 7, 42, "answer"
			case k == 3:
				r.Type, r.Shift = RecTimeShift, rng.Float64()
			case k == 4:
				r.Type, r.ID, r.Aux1, r.Name = RecConstDef, int32(i), 17, "line"
			case k < 15:
				r.Type, r.ID = RecBareEvt, int32(rng.Intn(20))
			case k < 28:
				r.Type, r.ID = RecCargoEvt, int32(rng.Intn(20))
				r.SetCargo(strings.Repeat("c", rng.Intn(MaxCargo+1)))
			default:
				r.Type, r.Dir = RecMsgEvt, DirSend+uint8(rng.Intn(2))
				r.Aux1, r.Aux2, r.Aux3 = int32(rng.Intn(8)), int32(rng.Intn(5)), int32(rng.Intn(1<<20))
			}
			recs[i] = r
		}
		if err := w.WriteBlock(rank, recs); err != nil {
			t.Fatal(err)
		}
		written += len(recs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDecoderMatchesOracleOnGoldens(t *testing.T) {
	for _, name := range []string{"lab2", "collisions", "thumbnail"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", name+".clog2"))
		if err != nil {
			t.Fatal(err)
		}
		sameAsOracleAllShapes(t, name, data)
	}
}

func TestDecoderMatchesOracleOnBigLog(t *testing.T) {
	sameAsOracleAllShapes(t, "100k", bigLog(t, 100_000, 1))
}

// Every way of cutting a file short: the error must be the one
// io.ReadFull gave field by field — io.EOF when the cut falls between two
// fields, io.ErrUnexpectedEOF inside one.
func TestDecoderMatchesOracleOnEveryTruncation(t *testing.T) {
	valid := validFileBytes(t)
	for cut := 0; cut <= len(valid); cut++ {
		sameAsOracleAllShapes(t, fmt.Sprintf("cut %d", cut), valid[:cut])
	}
}

// rawFile hand-assembles a one-block file around record bytes the Writer refuses
// to produce (cargo longer than MaxCargo).
func rawFile(records int32, body []byte) []byte {
	out := AppendBlockHeader(AppendHeader(nil, 1), 0, int(records))
	out = append(out, body...)
	return append(out, byte(RecEndBlock), byte(RecEndLog))
}

func rawCargoEvt(t float64, cargo []byte) []byte {
	out := []byte{byte(RecCargoEvt)}
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(t))
	out = binary.LittleEndian.AppendUint32(out, 0) // rank
	out = binary.LittleEndian.AppendUint32(out, 3) // etype
	out = binary.LittleEndian.AppendUint16(out, uint16(len(cargo)))
	return append(out, cargo...)
}

// rawTimed is the encoding of a timed record of type t with no payload,
// stamped at, of rank.
func rawTimed(t RecType, at float64, rank int32) []byte {
	out, _ := AppendRecord(nil, &Record{Type: t, Time: at, Rank: rank})
	return out
}

// A hostile file may declare more cargo than MaxCargo: the first MaxCargo
// bytes are kept, the rest consumed, and the next record still decodes.
func TestDecoderMatchesOracleOnOverlongCargo(t *testing.T) {
	for _, n := range []int{MaxCargo + 1, 255, math.MaxUint16} {
		cargo := bytes.Repeat([]byte("abcdefg"), n/7+1)[:n]
		var body []byte
		// Enough records around it that the long cargo is met both wholly
		// buffered and straddling a refill.
		for i := 0; i < 4000; i++ {
			body = append(body, rawCargoEvt(float64(i), cargo[:i%MaxCargo])...)
			if i%1000 == 500 {
				body = append(body, rawCargoEvt(float64(i), cargo)...)
			}
		}
		data := rawFile(4004, body)
		sameAsOracleAllShapes(t, fmt.Sprintf("cargo %d", n), data)
		for _, cut := range []int{len(data) - 3, len(data) / 2, firstRecord + 19 + n/2} {
			sameAsOracle(t, fmt.Sprintf("cargo %d cut %d", n, cut), data[:cut], sourceShapes[0].wrap, false)
		}
		br, err := NewBlockReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		b, err := br.NextReuse(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := b.Records[501].CargoBytes(); !bytes.Equal(got, cargo[:MaxCargo]) {
			t.Fatalf("cargo declared at %d bytes decoded as %q", n, got)
		}
	}
}

// The longest string the format allows, placed so it straddles the end of
// the first buffer-full: the decoder must compact and refill, never grow.
func TestDecoderMatchesOracleOnLongNameAcrossRefill(t *testing.T) {
	name := strings.Repeat("x", math.MaxUint16)
	const pad = 23 // a ConstDef without a name: definitions lead the log
	for _, lead := range []int{0, 100, decodeBufSize/pad - 1, decodeBufSize / pad, decodeBufSize/pad + 3000} {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf, 2)
		recs := make([]Record, lead, lead+2)
		for i := range recs {
			recs[i] = Record{Type: RecConstDef, ID: int32(i), Aux1: 2}
		}
		recs = append(recs, Record{Type: RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Color: name[:300], Name: name},
			Record{Type: RecMsgEvt, Time: float64(lead), Dir: DirRecv, Aux1: 1, Aux2: 2, Aux3: 3})
		if err := w.WriteCut(NewCut(0, 2, MaxBlockRecords, recs)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		sameAsOracleAllShapes(t, fmt.Sprintf("lead %d", lead), buf.Bytes())
		br, err := NewBlockReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var got []Record
		if err := br.Each(func(b Block) error { got = append(got, b.Records...); return nil }); err != nil {
			t.Fatal(err)
		}
		if got[lead].Name != name || len(br.d.buf) != decodeBufSize {
			t.Fatalf("lead %d: name of %d bytes, buffer of %d", lead, len(got[lead].Name), len(br.d.buf))
		}
	}
}

// SeekTo with bytes of another block still buffered: the buffer is
// dropped, offsets restart at the target, and an earlier error is cleared.
func TestSeekToMatchesOracle(t *testing.T) {
	data := bigLog(t, 30_000, 2)
	all := drain(NewBlockReader(bytes.NewReader(data)))
	if all.err != nil || len(all.blocks) < 8 {
		t.Fatalf("%d blocks, err %v", len(all.blocks), all.err)
	}
	first := all.bounds[0][0]
	br, err := NewBlockReaderAt(bytes.NewReader(data), first, 8)
	if err != nil {
		t.Fatal(err)
	}
	or, err := newOracleReaderAt(bytes.NewReader(data), first)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 60; step++ {
		i := rng.Intn(len(all.blocks))
		target := all.bounds[i][0]
		if step%20 == 19 {
			target += 5 // mid-record: garbage or an error, the same one twice
		}
		if err := br.SeekTo(target); err != nil {
			t.Fatal(err)
		}
		if err := or.SeekTo(target); err != nil {
			t.Fatal(err)
		}
		// Read a few blocks on, leaving the buffer half consumed.
		for k := 0; k <= step%3; k++ {
			got, gerr := br.NextReuse(nil)
			want, werr := or.NextReuse(nil)
			if errClass(gerr) != errClass(werr) || (gerr == io.EOF) != (werr == io.EOF) {
				t.Fatalf("step %d: err %v, oracle %v", step, gerr, werr)
			}
			if gerr != nil {
				break
			}
			gs, ge := br.BlockBounds()
			ws, we := or.BlockBounds()
			if gs != ws || ge != we || !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: block at [%d,%d) differs from the oracle's at [%d,%d)", step, gs, ge, ws, we)
			}
		}
	}
}

// stallReader hands over its data, then returns (0, nil) for ever.
type stallReader struct{ data []byte }

func (s *stallReader) Read(p []byte) (int, error) {
	n := copy(p, s.data)
	s.data = s.data[n:]
	return n, nil
}

// A source that stops making progress ends in io.ErrNoProgress, at a block
// boundary (where bufio's Peek gave the same) and inside a record (where
// io.ReadFull over bufio span for ever, so there is no oracle to ask).
func TestStalledSourceEndsInErrNoProgress(t *testing.T) {
	valid := validFileBytes(t)
	boundary := len(valid) - 1 // the end-log marker withheld
	got := drain(NewBlockReader(&stallReader{valid[:boundary]}))
	want := drain(newOracleReader(&stallReader{valid[:boundary]}))
	compareDrained(t, "stall at a block boundary", got, want, false)
	for _, cut := range []int{boundary, boundary - 3, HeaderSize + 2, firstRecord + 5, 3} {
		d := drain(NewBlockReader(&stallReader{valid[:cut]}))
		if !errors.Is(d.err, io.ErrNoProgress) {
			t.Fatalf("stall after %d bytes: %v", cut, d.err)
		}
	}
}

// NextIn keeps exactly the records of a full decode that its query
// selects (selects), time shifts stamped outside the window stepped over
// as every timed record is, in order, however the source hands its bytes
// over (one at a time, records straddle every refill of the decode buffer
// and take the path that decodes them and drops them after), and the count
// it reports is each block's declared count.
func TestNextInKeepsWhatTheWindowKeeps(t *testing.T) {
	data := bigLog(t, 5000, 3)
	_, full, err := readBlocks(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	inf := math.Inf(1)
	var queries []Query
	for _, w := range [][2]float64{{1e-3, 2e-3}, {-inf, 5e-4}, {4e-3, inf}, {3e-3, 3e-3}, {1, 2}, {-inf, inf}} {
		for _, rank := range []int32{-1, 0, 3} {
			for _, defs := range []bool{true, false} {
				queries = append(queries, Query{T0: w[0], T1: w[1], Rank: rank, IncludeDefs: defs})
			}
		}
	}
	for _, q := range queries {
		for _, sh := range sourceShapes[:3] {
			br, err := NewBlockReader(sh.wrap(bytes.NewReader(data)))
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]Record, 0, 700)
			for bi, b := range full {
				var want []Record
				for _, r := range b.Records {
					if selects(q, &r) {
						want = append(want, r)
					}
				}
				got, n, err := br.NextIn(buf[:0], q)
				if err != nil {
					t.Fatalf("%+v, %s, block %d: %v", q, sh.name, bi, err)
				}
				if got.Rank != b.Rank || int(n) != len(b.Records) || !slices.Equal(got.Records, want) {
					t.Fatalf("%+v, %s, block %d: rank %d, read %d of %d records, kept %d, want %d", q, sh.name, bi, got.Rank, n, len(b.Records), len(got.Records), len(want))
				}
				buf = got.Records
			}
			if _, _, err := br.NextIn(buf[:0], q); err != io.EOF {
				t.Fatalf("%+v, %s: after the last block, err = %v", q, sh.name, err)
			}
		}
	}
}
