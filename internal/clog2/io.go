package clog2

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"slices"
	"strconv"
	"sync"
)

// Magic begins every file; the trailing digits are this format's version.
const Magic = "CLOG-R0260"

// HeaderSize is the byte length of the file header (magic plus the
// little-endian int32 rank count): the offset of the first block.
const HeaderSize = len(Magic) + 4

// Writer emits a CLOG-2 file incrementally: a header, then blocks of
// records, then Close writes the end-log marker and the log's block table
// (table.go). What it encodes, AppendRecord encodes into one buffer, which
// the Writer hands to the underlying writer whenever a timed record might
// not fit: only a definition with strings longer than the buffer ever
// grows it. Records that come already encoded (WriteBlock's pages) are
// handed on as they are.
type Writer struct {
	w   io.Writer // nil under AppendBlock: buf then takes the whole block
	buf []byte    // encoded bytes not yet handed to w
	// off counts the bytes handed to w; Offset adds what buf still holds.
	off    int64
	closed bool
	err    error
	table  Table // an entry for each block written, unless w is nil
}

const writerBufSize = 64 << 10

// MaxTimedRecord is the longest encoding of a record without strings (a
// RecCargoEvt with MaxCargo bytes of cargo).
const MaxTimedRecord = 19 + MaxCargo

// NewWriter writes the file header for numRanks ranks onto w.
func NewWriter(w io.Writer, numRanks int) (*Writer, error) {
	if numRanks < 1 {
		return nil, fmt.Errorf("clog2: writer with %d ranks", numRanks)
	}
	return &Writer{w: w, buf: AppendHeader(make([]byte, 0, writerBufSize), numRanks), table: Table{NumRanks: numRanks}}, nil
}

// AppendHeader appends the file header for numRanks ranks.
func AppendHeader(dst []byte, numRanks int) []byte {
	return binary.LittleEndian.AppendUint32(append(dst, Magic...), uint32(numRanks))
}

// Offset returns the byte offset the next write will land at, counting
// from the start of the file (the header is HeaderSize bytes). Calling it
// immediately before WriteBlock gives the block's start offset;
// immediately after, the offset one past its end-block marker.
func (w *Writer) Offset() int64 { return w.off + int64(len(w.buf)) }

// WriteBlock appends one rank's block: recs, encoded here, then the
// records pages hold already encoded, whole and of the timed types (an mpe
// rank's log), handed to the underlying writer uncopied. The block header
// carries the total. A Writer over an underlying writer enters the block
// in its table; under AppendBlock, which has no pages, there is none.
func (w *Writer) WriteBlock(rank int32, recs []Record, pages ...[]byte) error {
	if err := w.writable(); err != nil {
		return err
	}
	if rank < 0 {
		return fmt.Errorf("clog2: block with negative rank %d", rank)
	}
	m := newBlockMeta(rank, w.Offset())
	m.addRecords(recs)
	for _, p := range pages {
		if err := m.addEncoded(p); err != nil {
			return err
		}
	}
	buf := AppendBlockHeader(w.buf, rank, int(m.Records))
	for i := range recs {
		if w.w != nil && cap(buf)-len(buf) < MaxTimedRecord {
			if w.emit(buf); w.err != nil {
				return w.err
			}
			buf = buf[:0]
		}
		if buf, w.err = AppendRecord(buf, &recs[i]); w.err != nil {
			return w.err
		}
	}
	for _, p := range pages {
		w.emit(buf)
		w.emit(p)
		buf = buf[:0]
	}
	w.buf = append(buf, byte(RecEndBlock))
	if w.w != nil {
		m.Length = w.Offset() - m.Offset
		w.table.Blocks = append(w.table.Blocks, m)
		w.table.TotalRecords += int64(m.Records)
	}
	return w.err
}

// AppendBlockHeader appends the header of a block of n records of rank.
// Ranks are shifted by +1 on the wire so a block header's first byte can
// never equal the RecEndLog marker (see BlockReader.header).
func AppendBlockHeader(dst []byte, rank int32, n int) []byte {
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(dst, uint32(rank+1)), uint32(n))
}

// AppendBlock appends the bare encoding of one rank block, what
// WriteBlock puts in a file, to dst: the payload a spill segment frames,
// and a log assembled in memory. On an error dst comes back as it was.
func AppendBlock(dst []byte, rank int32, recs []Record) ([]byte, error) {
	w := Writer{buf: dst}
	if err := w.WriteBlock(rank, recs); err != nil {
		return dst, err
	}
	return w.buf, nil
}

// Splice appends blocks that are already encoded: bytes a strict
// BlockReader has walked to their last end-block marker, which are
// therefore the bytes WriteBlock would produce for the records it
// decoded. They go to the underlying writer as they are, uncopied, and
// their entries, which that walk made (Table.AddRun) at the offsets the
// blocks land at, go into the table; entries that do not tile the blocks
// from Offset on are refused.
func (w *Writer) Splice(blocks []byte, entries []BlockMeta) error {
	if err := w.writable(); err != nil {
		return err
	}
	at, records := w.Offset(), int64(0)
	for _, m := range entries {
		if m.Offset != at || m.Length <= 0 {
			return fmt.Errorf("clog2: a spliced block's entry spans [%d,+%d), the block starts at %d", m.Offset, m.Length, at)
		}
		at += m.Length
		records += int64(m.Records)
	}
	if at != w.Offset()+int64(len(blocks)) {
		return fmt.Errorf("clog2: entries for %d bytes, %d bytes spliced", at-w.Offset(), len(blocks))
	}
	w.table.Blocks = append(w.table.Blocks, entries...)
	w.table.TotalRecords += records
	w.emit(w.buf)
	w.emit(blocks)
	w.buf = w.buf[:0]
	return w.err
}

// writable is the sticky first failure, or the refusal to write behind
// the end-log marker.
func (w *Writer) writable() error {
	if w.err == nil && w.closed {
		return fmt.Errorf("clog2: write after Close")
	}
	return w.err
}

// emit hands p to the underlying writer; the first failure is sticky and
// stops every later write.
func (w *Writer) emit(p []byte) {
	if w.err == nil && len(p) > 0 {
		var n int
		n, w.err = w.w.Write(p)
		w.off += int64(n)
	}
}

// Close writes the end-log marker and the block table behind it, and
// flushes. The underlying writer is not closed.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	w.emit(AppendTable(append(w.buf, byte(RecEndLog)), &w.table))
	w.buf = w.buf[:0]
	return w.err
}

// Table is the block table of what the Writer has written: once Close has
// succeeded, the table it wrote.
func (w *Writer) Table() *Table { return &w.table }

// AppendRecord appends r's encoding to dst: the mirror of readRecord, and
// the one encoder behind the Writer, AppendBlock and an mpe rank's pages. dst
// grows by exactly the record's size, when it has to; on an error (a
// string past the format's 65 535 bytes, a type with no encoding) it
// comes back as it was.
func AppendRecord(dst []byte, r *Record) ([]byte, error) {
	le := binary.LittleEndian
	out := le.AppendUint32(le.AppendUint64(append(dst, byte(r.Type)), math.Float64bits(r.Time)), uint32(r.Rank))
	switch r.Type {
	case RecBareEvt:
		return le.AppendUint32(out, uint32(r.ID)), nil
	case RecCargoEvt:
		out = le.AppendUint16(le.AppendUint32(out, uint32(r.ID)), uint16(r.CargoLen))
		return append(out, r.CargoBytes()...), nil
	case RecMsgEvt:
		return append32(append(out, r.Dir), r.Aux1, r.Aux2, r.Aux3), nil
	case RecTimeShift:
		return le.AppendUint64(out, math.Float64bits(r.Shift)), nil
	case RecStateDef:
		return appendStrs(dst, append32(out, r.ID, r.Aux1, r.Aux2), r.Color, r.Name)
	case RecEventDef:
		return appendStrs(dst, append32(out, r.ID), r.Color, r.Name)
	case RecConstDef:
		return appendStrs(dst, append32(out, r.ID, r.Aux1), r.Name)
	case RecSrcLoc:
		return appendStrs(dst, append32(out, r.Aux1), r.Text)
	}
	return dst, fmt.Errorf("clog2: cannot write record type %v", r.Type)
}

// TimedSize returns the length of the timed record p begins with, as
// AppendRecord encodes it: 17 bytes a bare event, 19 and its cargo a cargo
// event, 26 a message half, 21 a timeshift. It is 0 when p begins with
// another type or cuts the record short.
func TimedSize(p []byte) int {
	if len(p) == 0 {
		return 0
	}
	n := 0
	switch RecType(p[0]) {
	case RecBareEvt:
		n = 17
	case RecMsgEvt:
		n = timedPrefix
	case RecTimeShift:
		n = 21
	case RecCargoEvt:
		if len(p) >= 19 {
			n = 19 + int(binary.LittleEndian.Uint16(p[17:]))
		}
	}
	if n > len(p) {
		return 0
	}
	return n
}

func append32(out []byte, vs ...int32) []byte {
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint32(out, uint32(v))
	}
	return out
}

// appendStrs ends a record with its strings, each behind its uint16
// length; dst is where the record began, to hand back on an error.
func appendStrs(dst, out []byte, strs ...string) ([]byte, error) {
	for _, s := range strs {
		if len(s) > math.MaxUint16 {
			return dst, fmt.Errorf("clog2: string of %d bytes exceeds format limit", len(s))
		}
		out = append(binary.LittleEndian.AppendUint16(out, uint16(len(s))), s...)
	}
	return out, nil
}

// WriteFileAtomic writes the file at path through fill. The bytes land in
// a temporary file beside it that is renamed over path only once fill and
// Close have succeeded, so a failure midway (full disk, crash) leaves path
// as it was and no torn file where a reader would pick one up. The
// temporary file is made the way os.Create makes the log it sits beside,
// 0666 under the umask: os.CreateTemp's 0600 left a registered trace
// unreadable to a server under another account.
func WriteFileAtomic(path string, fill func(io.Writer) error) (err error) {
	name := path + ".tmp-" + strconv.FormatUint(rand.Uint64(), 36)
	tmp, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(name)
		}
	}()
	if err = fill(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(name, path)
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

// RunRecords is the most records Each decodes before it calls fn, and the
// size of its one buffer (576 KiB). The length buys no speed: a 400 000-
// record block walks in 7.1-8.4 ms (1.3-1.6 GB/s) at every length from 128
// to 4096 on the 2-CPU bench box (2 MiB of L2 a core). So it is set by
// what it should not split: a block of a generated log (2 048 records and
// a few) and a rank of the paper's demos (4 457 records a rank in the
// thumbnail run) are one run or two.
const RunRecords = 4096

// decodeBufSize is the size of a streaming decoder's one buffer. It holds
// the longest field the format can declare (a 65 535-byte string) whole,
// so the buffer is never grown and never sized from a length field.
const decodeBufSize = 64 << 10

// BlockReader streams a CLOG-2 file one bounded run of records at a time
// (NextRun, and Each over it) or one whole block at a time (Next,
// NextReuse), without ever materializing File.Blocks.
type BlockReader struct {
	d        decoder
	numRanks int
	done     bool
	// rank and left are the block in hand and its records still to decode.
	rank, left int32
	// rs is the underlying seekable source when the reader was opened via
	// NewBlockReaderAt; nil for plain streams (SeekTo then fails).
	rs io.ReadSeeker
	// lastStart/lastEnd are what BlockBounds reports.
	lastStart, lastEnd int64
}

// NewBlockReader reads the file header from r and returns a streaming
// block iterator.
func NewBlockReader(r io.Reader) (*BlockReader, error) {
	return newBlockReader(decoder{src: r, buf: decodePool.Get().(*[decodeBufSize]byte)[:]})
}

// NewStrictBlockReader is NewBlockReader over a whole log held in memory,
// decoded where it lies, that accepts the log only as AppendHeader,
// AppendBlock and an end-log marker assemble it: a cargo longer than
// MaxCargo, which other readers cut short, and a byte after the end-log
// marker (a Writer's block table among them) are errors. Decoding is then
// one-to-one, so once Each has walked the log to its end,
// log[HeaderSize:len(log)-1] are the bytes a Writer would produce for the
// records Each yielded, and can be spliced instead of re-encoded.
func NewStrictBlockReader(log []byte) (*BlockReader, error) {
	return newBlockReader(decoder{buf: log, w: len(log), strict: true})
}

func newBlockReader(dec decoder) (*BlockReader, error) {
	br := &BlockReader{d: dec}
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
// in a block table. The file header is not re-read or re-validated (the
// caller brings numRanks, typically from the table); the returned reader
// supports SeekTo for jumping between blocks.
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
		d:        decoder{src: rs, buf: decodePool.Get().(*[decodeBufSize]byte)[:], base: offset},
		numRanks: numRanks,
		rs:       rs,
	}, nil
}

// SeekTo repositions the reader at a block-start offset, discarding any
// buffered bytes and what was left of a half-read block. Only readers
// opened with NewBlockReaderAt are seekable.
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
	br.done, br.left = false, 0
	return nil
}

// NumRanks returns the rank count from the file header.
func (br *BlockReader) NumRanks() int { return br.numRanks }

// BlockBounds returns the byte range [start, end) of the block most
// recently returned by Next/NextReuse: its header through its end-block
// marker. Zero before the first successful Next. After NextRun it
// describes the block the run belongs to, and end is 0 until that block's
// last run.
func (br *BlockReader) BlockBounds() (start, end int64) { return br.lastStart, br.lastEnd }

// Next returns the next block, or io.EOF after the end-log marker. The
// returned Records slice is freshly allocated and owned by the caller.
func (br *BlockReader) Next() (Block, error) { return br.NextReuse(nil) }

// NextReuse is Next reusing buf's backing array for the record slice (buf
// may be nil). The returned Block.Records aliases buf and is only valid
// until the next NextReuse call with the same buffer. The block, or what
// NextRun left of it, is decoded whole, whatever it holds: a caller that
// only walks the records uses NextRun or Each.
func (br *BlockReader) NextReuse(buf []Record) (Block, error) {
	if err := br.header(); err != nil {
		return Block{}, err
	}
	recs, err := br.d.readBlock(buf, br.rank, br.left, "block")
	br.left = 0
	if err != nil {
		return Block{}, err
	}
	br.lastEnd = br.d.offset()
	return Block{Rank: br.rank, Records: recs}, nil
}

// header makes the next block the block in hand, unless one is half read:
// where it starts, its rank and how many records it declares; io.EOF at
// the end-log marker.
func (br *BlockReader) header() error {
	if br.left > 0 {
		return nil
	}
	if br.done {
		return io.EOF
	}
	d := &br.d
	if !d.need(1) {
		return d.err
	}
	start := d.offset()
	// Block ranks are +1 on the wire, so a leading 0 byte is the end-log
	// marker, not a header. (Known limit of the format: the header of rank
	// 255, 256 on the wire, begins with a 0 byte too and ends the log.)
	if RecType(d.buf[d.r]) == RecEndLog {
		d.r++
		br.done = true
		if d.strict && d.r != d.w {
			return fmt.Errorf("clog2: %d trailing bytes after the end-log marker", d.w-d.r)
		}
		return io.EOF
	}
	rank, n, err := d.blockHeader()
	if err == nil && d.strict && rank < 0 {
		err = fmt.Errorf("clog2: block with negative rank %d", rank)
	}
	if err == nil {
		br.rank, br.left, br.lastStart, br.lastEnd = rank, n, start, 0
	}
	return err
}

// NextRun returns the next run of the stream, or io.EOF after the end-log
// marker: at most cap(buf) consecutive records of one block, decoded into
// buf's backing array, under that block's rank. A block arrives as one run
// or several, an empty block as one empty run, so no block, however long,
// is ever held whole; run.Records is valid until buf is decoded into
// again. last marks a block's final run, handed over once its end-block
// marker has been checked: from then until the next call BlockBounds gives
// the block's full extent, on earlier runs its end is 0. A buf without
// capacity could never finish a block and is refused.
func (br *BlockReader) NextRun(buf []Record) (run Block, last bool, err error) {
	run, _, last, err = br.NextRunIn(buf, math.Inf(-1), math.Inf(1))
	return run, last, err
}

// NextRunIn is NextRun over the inclusive time window [t0, t1]: a bare,
// cargo or message record stamped outside it (t < t0 || t > t1) is
// stepped over undecoded, read no further than its type, time and length,
// and every other record is decoded as NextRun decodes it. The run holds
// at most cap(buf) of the records kept, consecutive in the block; read is
// how many of the block's records the call went through, kept and stepped
// over, so a caller can hold a block to the count it declared. A record
// whose fixed layout is not whole in the decode buffer is decoded in full
// and dropped afterwards if it is stamped outside, so which records come
// back never depends on the buffering. With both bounds
// infinite nothing is stepped over and read is len(run.Records).
func (br *BlockReader) NextRunIn(buf []Record, t0, t1 float64) (run Block, read int32, last bool, err error) {
	if cap(buf) == 0 {
		return Block{}, 0, false, errors.New("clog2: NextRun needs a buffer with room for a record")
	}
	if err := br.header(); err != nil {
		return Block{}, 0, false, err
	}
	recs, read, err := br.d.readRecordsIn(buf[:0], br.left, t0, t1)
	br.left -= read
	if last = br.left == 0; last && err == nil {
		err = br.d.endBlock(br.rank, "block")
		br.lastEnd = br.d.offset()
	}
	if err != nil {
		br.left = 0
		return Block{}, 0, false, err
	}
	return Block{Rank: br.rank, Records: recs}, read, last, nil
}

// decodePool holds the decode buffers of readers over a stream: a reader
// takes one when it is opened and keeps it unless Release hands it back.
var decodePool = sync.Pool{New: func() any { return new([decodeBufSize]byte) }}

// Release ends the reader's life and hands its decode buffer to the next
// reader opened: for a caller that opens one per query (idx.Walk), so
// that a query does not pay for, and clear, 64 KiB it uses once. Every
// call on a released reader reports the end of the log.
func (br *BlockReader) Release() {
	if br.d.src != nil {
		decodePool.Put((*[decodeBufSize]byte)(br.d.buf))
	}
	*br = BlockReader{numRanks: br.numRanks, done: true}
}

// RunBuffer is a run's worth of records from the pool Each draws on, for a
// caller that drives NextRun itself: NextRun(buf[:0]) until done, then Free.
type RunBuffer [RunRecords]Record

var runPool = sync.Pool{New: func() any { return new(RunBuffer) }}

// NewRunBuffer takes a buffer from the pool; its records are stale.
func NewRunBuffer() *RunBuffer { return runPool.Get().(*RunBuffer) }

// Free returns b to the pool: no run decoded into it may be used after.
func (b *RunBuffer) Free() { runPool.Put(b) }

// Each walks every remaining record of the stream, in file order, and
// returns nil after the end-log marker: it calls fn with each run NextRun
// yields into one pooled buffer of RunRecords records, so run.Records is
// valid until fn returns, and inside fn BlockBounds is as NextRun left it.
func (br *BlockReader) Each(fn func(run Block) error) error {
	return br.EachIn(math.Inf(-1), math.Inf(1), fn)
}

// EachIn is Each over NextRunIn's window [t0, t1]: fn gets every run,
// empty ones included, of the records NextRunIn keeps.
func (br *BlockReader) EachIn(t0, t1 float64, fn func(run Block) error) error {
	buf := NewRunBuffer()
	defer buf.Free()
	for {
		run, _, _, err := br.NextRunIn(buf[:0], t0, t1)
		if err == io.EOF {
			return nil
		}
		if err == nil {
			err = fn(run)
		}
		if err != nil {
			return err
		}
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
	// strict makes what a Writer never emits an error where a lenient
	// decoder repairs it (see NewStrictBlockReader).
	strict bool
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

// blockHeader decodes a block header's rank (the +1 wire shift undone)
// and record count.
func (d *decoder) blockHeader() (rank, n int32, err error) {
	rank = d.get32() - 1
	n = d.get32()
	if d.err != nil {
		return 0, 0, d.err
	}
	if n < 0 || n > 1<<28 {
		return 0, 0, fmt.Errorf("clog2: implausible record count %d", n)
	}
	return rank, n, nil
}

// readRecords appends the next n records to recs, which grows as append
// would when it is full: readBlock's loop over a whole block.
func (d *decoder) readRecords(recs []Record, n int32) ([]Record, error) {
	for ; n > 0; n-- {
		if len(recs) == cap(recs) {
			recs = slices.Grow(recs, 1)
		}
		recs = recs[:len(recs)+1]
		if err := d.readRecord(&recs[len(recs)-1]); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// readRecordsIn is NextRunIn's record loop: it appends up to n records,
// and no more than recs has room for, over the window [t0, t1]: a bare, cargo or message record stamped outside
// the window is stepped over when its fixed layout is buffered whole, and
// dropped after readRecord otherwise. read counts both kinds.
func (d *decoder) readRecordsIn(recs []Record, n int32, t0, t1 float64) (_ []Record, read int32, err error) {
	for ; read < n && len(recs) < cap(recs); read++ {
		if b := d.buf[d.r:d.w]; len(b) >= 9 { // type and time
			// A record readRecord would refuse (a strict decoder's long
			// cargo) is left to it.
			if t := leF64(b[1:]); (t < t0 || t > t1) && RecType(b[0]) != RecTimeShift {
				if size := TimedSize(b); size > 0 && (size <= MaxTimedRecord || !d.strict) {
					d.r += size
					continue
				}
			}
		}
		recs = recs[:len(recs)+1]
		r := &recs[len(recs)-1]
		if err := d.readRecord(r); err != nil {
			return nil, read, err
		}
		if r.Time < t0 || r.Time > t1 {
			switch r.Type {
			case RecBareEvt, RecCargoEvt, RecMsgEvt:
				recs = recs[:len(recs)-1]
			}
		}
	}
	return recs, read, nil
}

// readBlock decodes the n records a block header declared into buf's
// backing array (grown as append would), then the end-block marker.
func (d *decoder) readBlock(buf []Record, rank, n int32, what string) ([]Record, error) {
	recs := buf[:0]
	if cap(recs) == 0 {
		recs = make([]Record, 0, min(n, maxRecordPrealloc))
	}
	recs, err := d.readRecords(recs, n)
	if err == nil {
		err = d.endBlock(rank, what)
	}
	return recs, err
}

// endBlock consumes the end-block marker that follows a block's records.
func (d *decoder) endBlock(rank int32, what string) error {
	if tt := RecType(d.getByte()); d.err == nil && tt != RecEndBlock {
		return fmt.Errorf("clog2: %s for rank %d not terminated (got %v)", what, rank, tt)
	}
	return d.err
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
			body, n := d.r+19, int(binary.LittleEndian.Uint16(b[17:]))
			if end := body + n; end <= d.w && (n <= MaxCargo || !d.strict) {
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
	if d.strict && n > MaxCargo && d.err == nil {
		d.err = fmt.Errorf("clog2: cargo of %d bytes exceeds the %d a writer emits", n, MaxCargo)
	}
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
