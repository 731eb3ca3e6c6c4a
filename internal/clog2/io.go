package clog2

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Magic begins every file; the trailing digits are this format's version.
const Magic = "CLOG-R0260"

// HeaderSize is the byte length of the file header (magic plus the
// little-endian int32 rank count): the offset of the first block.
const HeaderSize = len(Magic) + 4

// Writer emits a CLOG-2 file incrementally: a header, then blocks of
// records, then Close writes the end-log marker.
type Writer struct {
	w      *bufio.Writer
	closed bool
	err    error
	// off counts the bytes emitted so far (including any still sitting in
	// the bufio buffer): the byte offset the next write lands at, which is
	// what an index sidecar records as a block's position.
	off int64
	// num is the fixed-size field scratch buffer. Local [N]byte arrays
	// escape to the heap here (they cross the io.Writer interface), which
	// costs an allocation per record field; a struct field does not.
	num [8]byte
}

// NewWriter writes the file header for numRanks ranks onto w.
func NewWriter(w io.Writer, numRanks int) (*Writer, error) {
	if numRanks < 1 {
		return nil, fmt.Errorf("clog2: writer with %d ranks", numRanks)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(Magic); err != nil {
		return nil, err
	}
	if err := binary.Write(bw, binary.LittleEndian, int32(numRanks)); err != nil {
		return nil, err
	}
	return &Writer{w: bw, off: int64(HeaderSize)}, nil
}

// Offset returns the byte offset the next write will land at, counting
// from the start of the file (the header is HeaderSize bytes). Calling it
// immediately before WriteBlock gives the block's start offset;
// immediately after, the offset one past its end-block marker.
func (w *Writer) Offset() int64 { return w.off }

// WriteBlock appends one rank's block of records.
func (w *Writer) WriteBlock(rank int32, recs []Record) error {
	return w.WriteBlockChunks(rank, recs)
}

// WriteBlockChunks appends one rank block whose records arrive in
// consecutive chunks (as handed out by the mpe record arenas), producing
// exactly the bytes WriteBlock would for the concatenated records: one
// header carrying the total count, every record in chunk order, then the
// end-block marker.
func (w *Writer) WriteBlockChunks(rank int32, chunks ...[]Record) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("clog2: write after Close")
	}
	if rank < 0 {
		return fmt.Errorf("clog2: block with negative rank %d", rank)
	}
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	// Ranks are shifted by +1 on the wire so a block header's first byte
	// can never equal the RecEndLog marker (see BlockReader.NextReuse).
	w.put32(rank + 1)
	w.put32(int32(total))
	for _, c := range chunks {
		for i := range c {
			w.writeRecord(&c[i])
		}
	}
	w.putType(RecEndBlock)
	return w.err
}

// Flush pushes buffered bytes to the underlying writer without closing
// the log: the write-through mode used by the abort-surviving spill files.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Close writes the end-log marker and flushes. The underlying writer is
// not closed.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	w.putType(RecEndLog)
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

func (w *Writer) writeRecord(r *Record) {
	w.putType(r.Type)
	w.putF64(r.Time)
	w.put32(r.Rank)
	switch r.Type {
	case RecStateDef:
		w.put32(r.ID)
		w.put32(r.Aux1)
		w.put32(r.Aux2)
		w.putStr(r.Color)
		w.putStr(r.Name)
	case RecEventDef:
		w.put32(r.ID)
		w.putStr(r.Color)
		w.putStr(r.Name)
	case RecConstDef:
		w.put32(r.ID)
		w.put32(r.Aux1)
		w.putStr(r.Name)
	case RecBareEvt:
		w.put32(r.ID)
	case RecCargoEvt:
		w.put32(r.ID)
		w.putBytes(r.CargoBytes())
	case RecMsgEvt:
		w.putByte(r.Dir)
		w.put32(r.Aux1)
		w.put32(r.Aux2)
		w.put32(r.Aux3)
	case RecTimeShift:
		w.putF64(r.Shift)
	case RecSrcLoc:
		w.put32(r.Aux1)
		w.putStr(r.Text)
	default:
		w.fail(fmt.Errorf("clog2: cannot write record type %v", r.Type))
	}
}

func (w *Writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

func (w *Writer) putType(t RecType) { w.putByte(uint8(t)) }

func (w *Writer) putByte(b uint8) {
	if w.err != nil {
		return
	}
	if err := w.w.WriteByte(b); err != nil {
		w.fail(err)
		return
	}
	w.off++
}

func (w *Writer) put32(v int32) {
	if w.err != nil {
		return
	}
	binary.LittleEndian.PutUint32(w.num[:4], uint32(v))
	if _, err := w.w.Write(w.num[:4]); err != nil {
		w.fail(err)
		return
	}
	w.off += 4
}

func (w *Writer) putF64(v float64) {
	if w.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(w.num[:8], math.Float64bits(v))
	if _, err := w.w.Write(w.num[:8]); err != nil {
		w.fail(err)
		return
	}
	w.off += 8
}

func (w *Writer) putBytes(b []byte) {
	if w.err != nil {
		return
	}
	if len(b) > math.MaxUint16 {
		w.fail(fmt.Errorf("clog2: string of %d bytes exceeds format limit", len(b)))
		return
	}
	binary.LittleEndian.PutUint16(w.num[:2], uint16(len(b)))
	if _, err := w.w.Write(w.num[:2]); err != nil {
		w.fail(err)
		return
	}
	if _, err := w.w.Write(b); err != nil {
		w.fail(err)
		return
	}
	w.off += 2 + int64(len(b))
}

func (w *Writer) putStr(s string) {
	if w.err != nil {
		return
	}
	if len(s) > math.MaxUint16 {
		w.fail(fmt.Errorf("clog2: string of %d bytes exceeds format limit", len(s)))
		return
	}
	binary.LittleEndian.PutUint16(w.num[:2], uint16(len(s)))
	if _, err := w.w.Write(w.num[:2]); err != nil {
		w.fail(err)
		return
	}
	if _, err := w.w.WriteString(s); err != nil {
		w.fail(err)
		return
	}
	w.off += 2 + int64(len(s))
}

// ReadLenient parses as much of a CLOG-2 stream as possible: complete
// blocks are returned even when the end-log marker is missing or the tail
// is torn mid-block, as happens to spill files from an aborted program.
// The second result reports whether the file was complete.
func ReadLenient(r io.Reader) (*File, bool, error) {
	f, err := Read(r)
	if err == nil {
		return f, true, nil
	}
	pf, ok := err.(*partialError)
	if !ok {
		return nil, false, err
	}
	return pf.file, false, nil
}

// maxRecordPrealloc caps the record-slice capacity reserved from a block
// header's declared count, so a corrupt or hostile header cannot force a
// multi-gigabyte allocation before a single record has been decoded.
const maxRecordPrealloc = 4096

// decodeBufSize is the size of a streaming decoder's one buffer. It holds
// the longest field the format can declare (a 65 535-byte string) whole,
// so the buffer is never grown and never sized from a length field.
const decodeBufSize = 64 << 10

// BlockReader streams a CLOG-2 file one block at a time, without ever
// materializing File.Blocks: the converter's partitioning phase and the
// end-of-run merge both consume blocks as they arrive. Next returns io.EOF
// after the end-log marker.
type BlockReader struct {
	d        decoder
	numRanks int
	done     bool
	// rs is the underlying seekable source when the reader was opened via
	// NewBlockReaderAt; nil for plain streams (SeekTo then fails).
	rs io.ReadSeeker
	// lastStart/lastEnd bracket the block most recently returned by
	// NextReuse: [lastStart, lastEnd) are its bytes in the file, header
	// through end-block marker inclusive.
	lastStart, lastEnd int64
}

// NewBlockReader reads the file header from r and returns a streaming
// block iterator.
func NewBlockReader(r io.Reader) (*BlockReader, error) {
	br := &BlockReader{d: decoder{src: r, buf: make([]byte, decodeBufSize)}}
	d := &br.d
	if err := d.fill(len(Magic)); err != nil {
		return nil, fmt.Errorf("clog2: reading magic: %w", err)
	}
	if magic := d.buf[d.r : d.r+len(Magic)]; string(magic) != Magic {
		return nil, fmt.Errorf("clog2: bad magic %q (not a CLOG-2 file?)", magic)
	}
	d.r += len(Magic)
	if err := d.fill(4); err != nil {
		return nil, fmt.Errorf("clog2: reading rank count: %w", err)
	}
	nranks := d.get32()
	if nranks < 1 || nranks > 1<<20 {
		return nil, fmt.Errorf("clog2: implausible rank count %d", nranks)
	}
	br.numRanks = int(nranks)
	return br, nil
}

// NewBlockReaderAt opens a block iterator positioned at offset in rs — a
// block-start byte offset previously reported by BlockBounds or recorded
// in an index sidecar. The file header is not re-read or re-validated
// (the caller brings numRanks, typically from the index); the returned
// reader supports SeekTo for jumping between blocks.
func NewBlockReaderAt(rs io.ReadSeeker, offset int64, numRanks int) (*BlockReader, error) {
	if numRanks < 1 || numRanks > 1<<20 {
		return nil, fmt.Errorf("clog2: implausible rank count %d", numRanks)
	}
	if offset < int64(HeaderSize) {
		return nil, fmt.Errorf("clog2: block offset %d inside the file header", offset)
	}
	if _, err := rs.Seek(offset, io.SeekStart); err != nil {
		return nil, err
	}
	return &BlockReader{
		d:        decoder{src: rs, buf: make([]byte, decodeBufSize), base: offset},
		numRanks: numRanks,
		rs:       rs,
	}, nil
}

// SeekTo repositions the reader at a block-start offset, discarding any
// buffered bytes. Only readers opened with NewBlockReaderAt are seekable.
func (br *BlockReader) SeekTo(offset int64) error {
	if br.rs == nil {
		return fmt.Errorf("clog2: block reader over a plain stream is not seekable")
	}
	if offset < int64(HeaderSize) {
		return fmt.Errorf("clog2: block offset %d inside the file header", offset)
	}
	if _, err := br.rs.Seek(offset, io.SeekStart); err != nil {
		return err
	}
	br.d = decoder{src: br.rs, buf: br.d.buf, base: offset}
	br.done = false
	return nil
}

// NumRanks returns the rank count from the file header.
func (br *BlockReader) NumRanks() int { return br.numRanks }

// BlockBounds returns the byte range [start, end) of the block most
// recently returned by Next/NextReuse: its header through its end-block
// marker. Zero before the first successful Next.
func (br *BlockReader) BlockBounds() (start, end int64) { return br.lastStart, br.lastEnd }

// Next returns the next block, or io.EOF after the end-log marker. The
// returned Records slice is freshly allocated and owned by the caller.
func (br *BlockReader) Next() (Block, error) { return br.NextReuse(nil) }

// NextReuse is Next reusing buf's backing array for the record slice (buf
// may be nil). The returned Block.Records aliases buf and is only valid
// until the next NextReuse call with the same buffer — the zero-allocation
// path the merge loop uses.
func (br *BlockReader) NextReuse(buf []Record) (Block, error) {
	if br.done {
		return Block{}, io.EOF
	}
	d := &br.d
	if !d.need(1) {
		return Block{}, d.err
	}
	start := d.offset()
	// Block ranks are +1 on the wire, so a leading 0 byte is the end-log
	// marker, not a header. (Known limit of the format: the header of rank
	// 255, 256 on the wire, begins with a 0 byte too and ends the log.)
	if RecType(d.buf[d.r]) == RecEndLog {
		d.r++
		br.done = true
		return Block{}, io.EOF
	}
	rank := d.get32() - 1 // undo the +1 wire shift
	n := d.get32()
	if d.err != nil {
		return Block{}, d.err
	}
	recs, err := d.readRecords(buf, rank, n, "block")
	if err != nil {
		return Block{}, err
	}
	br.lastStart, br.lastEnd = start, d.offset()
	return Block{Rank: rank, Records: recs}, nil
}

// Each calls fn with every remaining block of the stream, in file
// order, and returns nil after the end-log marker. Blocks share one
// record buffer: b.Records is valid until fn returns.
func (br *BlockReader) Each(fn func(Block) error) error {
	var buf []Record
	for {
		b, err := br.NextReuse(buf)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(b); err != nil {
			return err
		}
		buf = b.Records
	}
}

// Read parses a complete CLOG-2 file.
func Read(r io.Reader) (*File, error) {
	br, err := NewBlockReader(r)
	if err != nil {
		return nil, err
	}
	f := &File{NumRanks: br.NumRanks()}
	for {
		b, err := br.Next()
		if err == io.EOF {
			return f, nil
		}
		if err != nil {
			return nil, &partialError{file: f, err: err}
		}
		f.Blocks = append(f.Blocks, b)
	}
}

// partialError carries the complete blocks parsed before a failure, so
// ReadLenient can salvage torn spill files.
type partialError struct {
	file *File
	err  error
}

func (e *partialError) Error() string { return e.err.Error() }
func (e *partialError) Unwrap() error { return e.err }

// decoder reads fields out of one byte buffer it owns: buf[r:w] holds the
// bytes read from src and not yet decoded. A decoder over bytes already in
// memory has no src; buf is then the caller's slice, whole.
type decoder struct {
	src  io.Reader
	buf  []byte
	r, w int
	// base is the file offset of buf[0]; offset() derives the position of
	// the next unread byte from it — the source of block-bounds reporting.
	base int64
	// err is the first decode failure and is sticky; srcErr is what src
	// returned beside the last bytes it gave, reported once they run out.
	err, srcErr error
}

// timedPrefix is the longest fixed-layout prefix of a timed record (a
// RecMsgEvt, whole): with that many bytes buffered readRecord decodes
// without a bounds or refill check per field.
const timedPrefix = 26

func (d *decoder) offset() int64 { return d.base + int64(d.r) }

// fill makes at least n unread bytes available, compacting the buffer and
// reading src until they are there. n never exceeds len(buf): no field is
// longer than decodeBufSize. The error is what io.ReadFull would give for
// the same field: io.EOF with nothing left, io.ErrUnexpectedEOF when the
// field is cut, src's own error otherwise — and io.ErrNoProgress, as
// bufio, for a source that keeps returning (0, nil).
func (d *decoder) fill(n int) error {
	if d.w-d.r >= n {
		return nil
	}
	if d.src != nil && d.srcErr == nil {
		d.base += int64(d.r)
		d.w = copy(d.buf, d.buf[d.r:d.w])
		d.r = 0
		for empty := 0; d.w < n && d.srcErr == nil; {
			m, err := d.src.Read(d.buf[d.w:])
			d.w += m
			switch {
			case err != nil:
				d.srcErr = err
			case m > 0:
				empty = 0
			default:
				if empty++; empty >= 100 {
					d.srcErr = io.ErrNoProgress
				}
			}
		}
		if d.w >= n {
			return nil
		}
	}
	err := d.srcErr
	if err == nil {
		err = io.EOF // no source: buf was the whole input
	}
	if err == io.EOF && d.w > d.r {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// need is fill for record fields: a failure becomes the sticky d.err.
func (d *decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.w-d.r >= n {
		return true
	}
	if err := d.fill(n); err != nil {
		d.err = fmt.Errorf("clog2: truncated file: %w", err)
		return false
	}
	return true
}

// readRecords decodes the n records a block header declared into buf's
// backing array (grown as append would), then the end-block marker.
func (d *decoder) readRecords(buf []Record, rank, n int32, what string) ([]Record, error) {
	if n < 0 || n > 1<<28 {
		return nil, fmt.Errorf("clog2: implausible record count %d", n)
	}
	recs := buf[:0]
	if cap(recs) == 0 {
		recs = make([]Record, 0, min(n, maxRecordPrealloc))
	}
	for i := int32(0); i < n; i++ {
		if len(recs) == cap(recs) {
			recs = slices.Grow(recs, 1)
		}
		recs = recs[:len(recs)+1]
		if err := d.readRecord(&recs[len(recs)-1]); err != nil {
			return nil, err
		}
	}
	if tt := RecType(d.getByte()); d.err == nil && tt != RecEndBlock {
		return nil, fmt.Errorf("clog2: %s for rank %d not terminated (got %v)", what, rank, tt)
	}
	return recs, d.err
}

// readRecord decodes one record into *r, overwriting every field.
func (d *decoder) readRecord(r *Record) error {
	if d.w-d.r >= timedPrefix {
		// Fast path: the fixed prefix of every timed record type is
		// buffered whole.
		b := d.buf[d.r : d.r+timedPrefix]
		switch t := RecType(b[0]); t {
		case RecBareEvt:
			*r = Record{Type: t, Time: leF64(b[1:]), Rank: le32(b[9:]), ID: le32(b[13:])}
			d.r += 17
			return nil
		case RecMsgEvt:
			*r = Record{Type: t, Time: leF64(b[1:]), Rank: le32(b[9:]), Dir: b[13],
				Aux1: le32(b[14:]), Aux2: le32(b[18:]), Aux3: le32(b[22:])}
			d.r += 26
			return nil
		case RecCargoEvt:
			body := d.r + 19
			if end := body + int(binary.LittleEndian.Uint16(b[17:])); end <= d.w {
				*r = Record{Type: t, Time: leF64(b[1:]), Rank: le32(b[9:]), ID: le32(b[13:])}
				r.CargoLen = uint8(copy(r.Cargo[:], d.buf[body:end]))
				d.r = end
				return nil
			}
		}
	}
	*r = Record{}
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
		d.getCargo(r)
	case RecMsgEvt:
		r.Dir = d.getByte()
		r.Aux1 = d.get32()
		r.Aux2 = d.get32()
		r.Aux3 = d.get32()
	case RecTimeShift:
		r.Shift = d.getF64()
	case RecSrcLoc:
		r.Aux1 = d.get32()
		r.Text = d.getStr()
	default:
		if d.err == nil {
			d.err = fmt.Errorf("clog2: unknown record type %d", r.Type)
		}
	}
	return d.err
}

func le32(b []byte) int32 { return int32(binary.LittleEndian.Uint32(b)) }

func leF64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

func (d *decoder) getByte() uint8 {
	if !d.need(1) {
		return 0
	}
	d.r++
	return d.buf[d.r-1]
}

func (d *decoder) get16() int {
	if !d.need(2) {
		return 0
	}
	d.r += 2
	return int(binary.LittleEndian.Uint16(d.buf[d.r-2:]))
}

func (d *decoder) get32() int32 {
	if !d.need(4) {
		return 0
	}
	d.r += 4
	return le32(d.buf[d.r-4:])
}

func (d *decoder) getF64() float64 {
	if !d.need(8) {
		return 0
	}
	d.r += 8
	return leF64(d.buf[d.r-8:])
}

// getCargo reads a length-prefixed cargo string straight into the
// record's fixed buffer — no per-record string allocation. Our writer
// never emits more than MaxCargo bytes, but a hostile file may declare
// more; the excess is consumed and dropped.
func (d *decoder) getCargo(r *Record) {
	n := d.get16()
	keep := min(n, MaxCargo)
	if !d.need(keep) {
		return
	}
	r.CargoLen = uint8(copy(r.Cargo[:], d.buf[d.r:d.r+keep]))
	d.r += keep
	d.skip(n - keep)
}

// skip drops n bytes that belong to no field. Cut short it fails with the
// source's own error once the bytes run out — a plain io.EOF, not
// io.ErrUnexpectedEOF — which is what the oracle's Discard reports.
func (d *decoder) skip(n int) {
	for n > 0 && d.need(1) {
		m := min(n, d.w-d.r)
		d.r += m
		n -= m
	}
}

// getStr reads a length-prefixed string into fresh memory: definition
// names outlive the buffer.
func (d *decoder) getStr() string {
	n := d.get16()
	if n == 0 || !d.need(n) {
		return ""
	}
	d.r += n
	return string(d.buf[d.r-n : d.r])
}
