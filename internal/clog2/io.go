package clog2

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"strconv"
	"sync"
)

// Magic begins every file; the trailing digits are this format's version.
// Only this version is read: a file of an earlier one is refused by name
// (checkMagic).
const Magic = "CLOG-R0261"

// HeaderSize is the byte length of the file header (magic plus the
// little-endian int32 rank count): the offset of the first block.
const HeaderSize = len(Magic) + 4

// MaxRanks is the most ranks a log header may declare: a Writer refuses
// more, and so does every reader.
const MaxRanks = 1 << 20

// MaxBlockRecords is the most records a block holds: a Writer refuses a
// bigger block by name, and a reader refuses a header that declares more
// before it decodes a record, so that no reader holds more than one
// 4 096-record buffer (480 KiB) of a log. The length a reader decodes at a
// time buys no speed: a 400 000-record log walked in 7.1-8.4 ms (1.3-1.6
// GB/s) at every length from 128 to 4 096 records on the 2-CPU bench box
// (2 MiB of L2 a core). The merge writes blocks of 512 (mpe's
// blockRecords).
const MaxBlockRecords = 4096

// Writer emits a CLOG-2 file incrementally: a header, then blocks of
// records, then Close writes the end-log marker and the log's block table
// (table.go). What it encodes, AppendRecord encodes into one buffer, which
// the Writer hands to the underlying writer whenever a timed record might
// not fit: only a definition with strings longer than the buffer ever
// grows it. Records that come already encoded (WriteBlock's pages) join
// the buffer when they fit in it and are handed on as they lie when they
// do not: the merge cuts a rank's pages into pieces of a few kilobytes
// with a block header between each two, and a write a piece (2 to 3 a
// block) made a 2 x 100 000-record merge to a file take 25.5 ms, where
// gathered it takes 19 to 21.5 ms.
type Writer struct {
	w   io.Writer // nil under AppendBlock: buf then takes the whole block
	buf []byte    // encoded bytes not yet handed to w
	// off counts the bytes handed to w; Offset adds what buf still holds.
	off    int64
	closed bool
	err    error
	table  Table             // an entry for each block written, unless w is nil
	last   map[int32]float64 // each rank's last stamp in the table's blocks (Block)
	timed  bool              // whether the table's blocks hold a timed record (Block)
}

const writerBufSize = 64 << 10

// MaxTimedRecord is the longest encoding of a record without strings (a
// RecCargoEvt with MaxCargo bytes of cargo).
const MaxTimedRecord = 19 + MaxCargo

// NewWriter writes the file header for numRanks ranks onto w.
func NewWriter(w io.Writer, numRanks int) (*Writer, error) {
	if numRanks < 1 || numRanks > MaxRanks {
		return nil, fmt.Errorf("clog2: writer with %d ranks", numRanks)
	}
	return &Writer{w: w, buf: AppendHeader(make([]byte, 0, writerBufSize), numRanks), table: Table{NumRanks: numRanks}, last: map[int32]float64{}}, nil
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
// rank's pages, or pieces of them cut at record boundaries), neither
// decoded nor encoded again. The block header carries the total, which may
// not pass MaxBlockRecords. A block that breaks the rule of a block
// (Block), or a page checkTimed refuses, is refused by name before a byte
// of it is written. A Writer over an underlying writer enters the block in
// its table, holds the rank's next block to its last stamp and, once a
// block has held a timed record, refuses a definition in every later one;
// under AppendBlock, which has no pages, there is none of that.
func (w *Writer) WriteBlock(rank int32, recs []Record, pages ...[]byte) error {
	if err := w.writable(); err != nil {
		return err
	}
	if err := checkRank(rank, w.table.NumRanks); err != nil {
		return err
	}
	last, ok := w.last[rank]
	if !ok {
		last = noStamp
	}
	m := newBlockMeta(rank, w.Offset())
	if err := m.addRecords(recs, w.table.NumRanks, &last, w.timed); err != nil {
		return err
	}
	for _, p := range pages {
		if _, _, err := checkTimed(p, rank, w.table.NumRanks, len(p), &m, &last); err != nil {
			return err
		}
	}
	if m.Records > MaxBlockRecords {
		return fmt.Errorf("clog2: a block of %d records, past MaxBlockRecords (%d)", m.Records, MaxBlockRecords)
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
		if len(p) > cap(buf)-len(buf) {
			w.emit(buf)
			buf = buf[:0]
		}
		if len(p) > cap(buf) {
			w.emit(p)
		} else {
			buf = append(buf, p...)
		}
	}
	w.buf = append(buf, byte(RecEndBlock))
	if w.w != nil {
		m.Length = w.Offset() - m.Offset
		w.table.Blocks = append(w.table.Blocks, m)
		w.table.TotalRecords += int64(m.Records)
		w.last[rank] = last
		w.timed = w.timed || m.Records > m.Defs
	}
	return w.err
}

// Cut is one rank's records that come already encoded in pages (an mpe
// rank's log at the wrap-up merge), checked as each page is added and cut
// at record boundaries into blocks of at most a fixed number of records,
// for WriteCut to write once every page is in: a block header and the
// pieces of the pages the block spans, neither decoded nor encoded again.
type Cut struct {
	rank     int32
	numRanks int
	perBlock int
	lead     []Record
	last     float64 // the pages' last stamp
	// pieces are sub-slices of the pages, block after block: block i is
	// pieces[ends[i-1]:ends[i]], and the block still open holds n records.
	pieces  [][]byte
	ends    []int
	n       int
	records int
}

// NewCut starts the cut of rank's records (of a log of numRanks ranks) into
// blocks of at most perBlock, led by lead: the lead fills blocks of its own
// but for its last perBlock records or fewer, which open the pages' block.
func NewCut(rank int32, numRanks, perBlock int, lead []Record) *Cut {
	perBlock = max(perBlock, 1)
	n := len(lead)
	if n > 0 {
		n = (n-1)%perBlock + 1
	}
	return &Cut{rank: rank, numRanks: numRanks, perBlock: perBlock, lead: lead, n: n, last: noStamp}
}

// Add checks page as checkTimed does, after the pages added before it,
// refusing by name what a Writer would not write as it lies before a block
// of the rank is written, and cuts its records into the blocks. The page is
// held, not copied, until WriteCut.
func (c *Cut) Add(page []byte) error {
	for len(page) > 0 {
		if c.n >= c.perBlock {
			c.ends, c.n = append(c.ends, len(c.pieces)), 0
		}
		n, size, err := checkTimed(page, c.rank, c.numRanks, c.perBlock-c.n, &BlockMeta{Rank: c.rank}, &c.last)
		if err != nil {
			return err
		}
		c.pieces = append(c.pieces, page[:size])
		c.n, c.records, page = c.n+n, c.records+n, page[size:]
	}
	return nil
}

// Records counts the records of the pages added.
func (c *Cut) Records() int { return c.records }

// WriteCut writes c's blocks, its lead records first. The lead is held to
// the rule of a block whole, after the rank's blocks before it and before
// the pages' first record, before a block of it is written, as Add holds
// each page before WriteCut: a Cut the Writer refuses leaves nothing of
// itself written.
func (w *Writer) WriteCut(c *Cut) error {
	if err := w.writable(); err != nil {
		return err
	}
	if err := checkRank(c.rank, w.table.NumRanks); err != nil {
		return err
	}
	last, ok := w.last[c.rank]
	if !ok {
		last = noStamp
	}
	m := newBlockMeta(c.rank, 0)
	if err := m.addRecords(c.lead, w.table.NumRanks, &last, w.timed); err != nil {
		return err
	}
	if len(c.pieces) > 0 {
		first := c.pieces[0]
		if at := leF64(first[1:]); !inOrder(at, last) {
			return stampError(RecType(first[0]), c.rank, at, last)
		}
	}
	lead, start := c.lead, 0
	for ; len(lead) > c.perBlock; lead = lead[c.perBlock:] {
		if err := w.WriteBlock(c.rank, lead[:c.perBlock]); err != nil {
			return err
		}
	}
	for _, end := range append(c.ends, len(c.pieces)) {
		if err := w.WriteBlock(c.rank, lead, c.pieces[start:end]...); err != nil {
			return err
		}
		lead, start = nil, end
	}
	return nil
}

// AppendBlockHeader appends the header of a block of n records of rank:
// the block-start marker, then the rank and the count as little-endian
// int32s. A block ends with the end-block marker and the log with the
// end-log marker, so a reader between two blocks tells a block from the
// end of the log by the marker byte alone, whatever the rank.
func AppendBlockHeader(dst []byte, rank int32, n int) []byte {
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(append(dst, byte(RecBeginBlock)), uint32(rank)), uint32(n))
}

// AppendBlock appends the bare encoding of one rank block, what
// WriteBlock puts in a file, to dst: the payload a spill segment frames,
// and a log assembled in memory. On an error dst comes back as it was.
func AppendBlock(dst []byte, rank int32, recs []Record) ([]byte, error) {
	w := Writer{buf: dst, table: Table{NumRanks: MaxRanks}}
	if err := w.WriteBlock(rank, recs); err != nil {
		return dst, err
	}
	return w.buf, nil
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

// checkTimed is the strict check of records that arrive already encoded:
// a page added to a Cut, and WriteBlock's pages. It walks at most max
// records from the start of p and returns how many it walked and the bytes
// they take, counting each into meta's entry after the rank's last stamp
// *last. It refuses, by name, a cargo declared longer than MaxCargo (which
// other readers cut short), a marker, any other record that is not timed, a
// record cut short by the end of p, and a record that breaks the rule of a
// block of rank in a log of numRanks ranks (keepsRule, then meta.add). What
// it takes is then AppendRecord's encoding of the records it decodes to,
// which is what a Writer writes for them, so it can be written as it lies.
func checkTimed(p []byte, rank int32, numRanks, max int, meta *BlockMeta, last *float64) (n, size int, err error) {
	for ; n < max && size < len(p); n++ {
		q := p[size:]
		t, m := RecType(q[0]), TimedSize(q)
		switch {
		case t == RecCargoEvt && len(q) >= 19 && binary.LittleEndian.Uint16(q[17:]) > MaxCargo:
			return n, size, fmt.Errorf("clog2: cargo of %d bytes exceeds the %d a writer emits", binary.LittleEndian.Uint16(q[17:]), MaxCargo)
		case t == RecEndLog || t == RecEndBlock || t == RecBeginBlock:
			return n, size, fmt.Errorf("clog2: marker %v at byte %d among records", t, size)
		case m == 0 && t >= RecBareEvt && t <= RecTimeShift:
			return n, size, fmt.Errorf("clog2: %v record at byte %d cut short by the end at %d", t, size, len(p))
		case m == 0:
			return n, size, fmt.Errorf("clog2: %v record at byte %d is not a timed record", t, size)
		}
		var peer int32
		if t == RecMsgEvt {
			peer = le32(q[14:])
		}
		if !keepsRule(t, le32(q[9:]), peer, rank, numRanks) {
			return n, size, fmt.Errorf("%w (at byte %d)", recordError(t, le32(q[9:]), peer, rank, numRanks), size)
		}
		if err := meta.add(t, leF64(q[1:]), last); err != nil {
			return n, size, fmt.Errorf("%w (at byte %d)", err, size)
		}
		size += m
	}
	return n, size, nil
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

// decodeBufSize is the size of a streaming decoder's one buffer. It holds
// the longest field the format can declare (a 65 535-byte string) whole,
// so the buffer is never grown and never sized from a length field.
const decodeBufSize = 64 << 10

// BlockReader streams a CLOG-2 file one whole block at a time (NextIn and
// NextReuse, and Each over them): no reader holds more than one block, of
// at most MaxBlockRecords records, of the log.
type BlockReader struct {
	d        decoder
	numRanks int
	done     bool
	last     map[int32]float64 // each rank's last stamp in the blocks read (Block)
	timed    bool              // whether the blocks read held a timed record (Block)
	// rs is the underlying seekable source when the reader was opened via
	// NewBlockReaderAt; nil for plain streams (SeekTo then fails).
	rs io.ReadSeeker
	// lastStart/lastEnd are what BlockBounds reports, and lastDefs counts
	// the definitions of that block, kept or not (NextAt checks it).
	lastStart, lastEnd int64
	lastDefs           int32
}

// NewBlockReader reads the file header from r and returns a streaming
// block iterator.
func NewBlockReader(r io.Reader) (*BlockReader, error) {
	return newBlockReader(decoder{src: r, buf: decodePool.Get().(*[decodeBufSize]byte)[:]})
}

func newBlockReader(dec decoder) (*BlockReader, error) {
	br := &BlockReader{d: dec, last: map[int32]float64{}}
	d := &br.d
	if err := d.fill(len(Magic)); err != nil {
		return nil, fmt.Errorf("clog2: reading magic: %w", err)
	}
	if err := checkMagic(d.buf[d.r : d.r+len(Magic)]); err != nil {
		return nil, fmt.Errorf("clog2: %w", err)
	}
	d.r += len(Magic)
	if err := d.fill(4); err != nil {
		return nil, fmt.Errorf("clog2: reading rank count: %w", err)
	}
	nranks := d.get32()
	if nranks < 1 || nranks > MaxRanks {
		return nil, fmt.Errorf("clog2: implausible rank count %d", nranks)
	}
	br.numRanks = int(nranks)
	return br, nil
}

// checkMagic refuses a file header that does not begin with Magic, naming
// the version of one that begins as an earlier version's does.
func checkMagic(magic []byte) error {
	switch {
	case string(magic) == Magic:
		return nil
	case string(magic[:len("CLOG-R")]) == "CLOG-R":
		return fmt.Errorf("a %s log; this version reads %s only", magic, Magic)
	}
	return fmt.Errorf("bad magic %q (not a CLOG-2 file?)", magic)
}

// NewBlockReaderAt opens a block iterator positioned at offset in rs — a
// block-start byte offset previously reported by BlockBounds or recorded
// in a block table. The file header is not re-read or re-validated (the
// caller brings numRanks, typically from the table); the returned reader
// supports SeekTo for jumping between blocks.
func NewBlockReaderAt(rs io.ReadSeeker, offset int64, numRanks int) (*BlockReader, error) {
	if numRanks < 1 || numRanks > MaxRanks {
		return nil, fmt.Errorf("clog2: implausible rank count %d", numRanks)
	}
	if offset < int64(HeaderSize) {
		return nil, fmt.Errorf("clog2: block offset %d inside the file header", offset)
	}
	if _, err := rs.Seek(offset, io.SeekStart); err != nil {
		return nil, err
	}
	return readerAt(rs, offset, numRanks), nil
}

// readerAt is NewBlockReaderAt without its checks, over rs standing at
// offset: for a caller whose numRanks a header or table held, and which
// seeks to a block before it reads one (NextAt).
func readerAt(rs io.ReadSeeker, offset int64, numRanks int) *BlockReader {
	return &BlockReader{
		d:        decoder{src: rs, buf: decodePool.Get().(*[decodeBufSize]byte)[:], base: offset},
		numRanks: numRanks,
		rs:       rs,
		last:     map[int32]float64{},
	}
}

// SeekTo repositions the reader at a block-start offset, discarding any
// buffered bytes. A forward seek keeps the ranks' last stamps and whether a
// timed record has been read (the blocks read across it are a subsequence
// of the log, in order if the log is) and a backward one forgets them. Only
// readers opened with NewBlockReaderAt are seekable.
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
	if offset < br.d.offset() {
		br.forget()
	}
	br.d = decoder{src: br.rs, buf: br.d.buf, base: offset}
	br.done = false
	return nil
}

// forget drops what the reader holds of the blocks it has read (each
// rank's last stamp, whether a timed record came), as a backward seek
// does: for a reader that goes on to another rank's blocks of the same
// log, read on their own (EachRank).
func (br *BlockReader) forget() {
	clear(br.last)
	br.timed = false
}

// NumRanks returns the rank count from the file header.
func (br *BlockReader) NumRanks() int { return br.numRanks }

// BlockBounds returns the byte range [start, end) of the block most
// recently returned (inside Each's fn, the block fn holds): its header
// through its end-block marker. Zero before the first block.
func (br *BlockReader) BlockBounds() (start, end int64) { return br.lastStart, br.lastEnd }

// NextReuse returns the next block, or io.EOF after the end-log marker,
// decoded whole into buf's backing array when the block fits it, and into
// a new array of the block's size otherwise (buf may be nil: the records
// are then the caller's). The returned Block.Records aliases buf and is
// only valid until the next call with the same buffer.
func (br *BlockReader) NextReuse(buf []Record) (Block, error) {
	b, _, err := br.NextIn(buf, MatchAll())
	return b, err
}

// NextIn is NextReuse cut to q, the one place a query is cut: the block
// comes with its definitions when q.IncludeDefs, and, when q selects its
// rank, its timed records stamped inside the inclusive window [q.T0, q.T1].
// A timed record it does not keep is stepped over undecoded, read no
// further than its type, time and length; a record whose fixed layout is
// not whole in the decode buffer is decoded in full and dropped afterwards,
// so which records come back never depends on the buffering. n is the
// count the block's header declared, the records kept and dropped, so a
// caller can hold the block to a count it was told; under MatchAll nothing
// is dropped and n is len(b.Records). A stamp dropped is held to the rule
// of a block as one kept is. The block is handed over only once its
// end-block marker has been read.
func (br *BlockReader) NextIn(buf []Record, q Query) (b Block, n int32, err error) {
	if br.done {
		return Block{}, 0, io.EOF
	}
	d := &br.d
	if !d.need(1) {
		return Block{}, 0, d.err
	}
	// Between two blocks the next byte is a block-start marker or the
	// end-log marker.
	if RecType(d.buf[d.r]) == RecEndLog {
		d.r++
		br.done = true
		return Block{}, 0, io.EOF
	}
	start := d.offset()
	rank, n, err := d.blockHeader(br.numRanks)
	if err == nil {
		last, ok := br.last[rank]
		if !ok {
			last = noStamp
		}
		t0, t1 := q.T0, q.T1
		if q.Rank >= 0 && q.Rank != rank {
			t0, t1 = math.Inf(1), math.Inf(-1) // no stamp is inside
		}
		timed := br.timed
		if b.Records, br.lastDefs, err = d.readBlock(buf, rank, n, br.numRanks, t0, t1, q.IncludeDefs, &last, &timed); err == nil {
			br.last[rank], br.timed = last, timed
		}
	}
	if err != nil {
		return Block{}, 0, err
	}
	br.lastStart, br.lastEnd = start, d.offset()
	b.Rank = rank
	return b, n, nil
}

// decodePool holds the decode buffers of readers over a stream: a reader
// takes one when it is opened and keeps it unless Release hands it back.
var decodePool = sync.Pool{New: func() any { return new([decodeBufSize]byte) }}

// Release ends the reader's life and hands its decode buffer to the next
// reader opened: for a caller that opens one per query (Walk), so
// that a query does not pay for, and clear, 64 KiB it uses once. Every
// call on a released reader reports the end of the log.
func (br *BlockReader) Release() {
	if br.d.src != nil {
		decodePool.Put((*[decodeBufSize]byte)(br.d.buf))
	}
	*br = BlockReader{numRanks: br.numRanks, done: true}
}

// blockPool holds the block buffers Each, Walk and the per-rank walk's
// cursors decode into: a block's worth of records, 480 KiB, that a walk
// would otherwise allocate and clear each time.
var blockPool = sync.Pool{New: func() any { return new([MaxBlockRecords]Record) }}

// Each walks every remaining block of the stream, in file order, and
// returns nil after the end-log marker, the one clean end of a log: fn
// gets each block whole, decoded into one pooled buffer, so b.Records is
// valid until fn returns. Otherwise it returns the error of the first
// block it could not read, or fn's. This is the rule for a log that may
// be torn (a spill fragment of an aborted run, a log cut short): the
// blocks fn got before an error are the log's complete blocks, and no
// record of the block that failed reaches fn. Whether the failure is a
// torn tail or a corrupt log is the caller's to say: a log whose block
// table validates (ReadTable) is never torn.
func (br *BlockReader) Each(fn func(b Block) error) error {
	return br.EachIn(MatchAll(), fn)
}

// EachIn is Each cut to q (NextIn): fn gets every block, empty ones
// included, holding the records q selects.
func (br *BlockReader) EachIn(q Query, fn func(b Block) error) error {
	buf := blockPool.Get().(*[MaxBlockRecords]Record)
	defer blockPool.Put(buf)
	for {
		b, _, err := br.NextIn(buf[:0], q)
		if err == io.EOF {
			return nil
		}
		if err == nil {
			err = fn(b)
		}
		if err != nil {
			return err
		}
	}
}

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

// blockHeader decodes a block header: the block-start marker, a rank in
// [0, numRanks) and a record count that may not pass MaxBlockRecords, both
// refused before a record is decoded.
func (d *decoder) blockHeader(numRanks int) (rank, n int32, err error) {
	if t := RecType(d.getByte()); d.err == nil && t != RecBeginBlock {
		return 0, 0, fmt.Errorf("clog2: %v where a block begins", t)
	}
	rank = d.get32()
	n = d.get32()
	if d.err != nil {
		return 0, 0, d.err
	}
	if err := checkRank(rank, numRanks); err != nil {
		return 0, 0, err
	}
	if n < 0 || n > MaxBlockRecords {
		return 0, 0, fmt.Errorf("clog2: a block of rank %d declares %d records (MaxBlockRecords is %d)", rank, n, MaxBlockRecords)
	}
	return rank, n, nil
}

// readBlock decodes the n records a block header declared into buf's
// backing array, or a new one of n records when buf has no room for them,
// then the end-block marker, and returns them and how many of the n are
// definitions. *last is the rank's last stamp and *timed whether the log
// has had a timed record, before the block and then after it. It keeps the timed records stamped inside [t0, t1],
// and the definitions when defs: a timed record outside is stepped over
// when its fixed layout is buffered whole, and any record it does not keep
// is dropped after readRecord otherwise. A timed record stamped out of
// order (inOrder) and a definition after a timed record, kept or not, and a
// record it keeps that breaks the rule (keepsRule) fail the block.
func (d *decoder) readBlock(buf []Record, rank, n int32, numRanks int, t0, t1 float64, defs bool, last *float64, timed *bool) (recs []Record, ndefs int32, err error) {
	recs = buf[:0]
	if cap(recs) < int(n) || recs == nil {
		recs = make([]Record, 0, n)
	}
	windowed := t0 > math.Inf(-1) || t1 < math.Inf(1) // else no stamp is outside
	for ; n > 0; n-- {
		if windowed && d.w-d.r >= 9 { // type and time
			b := d.buf[d.r:d.w]
			if t := leF64(b[1:]); t < t0 || t > t1 {
				if size := TimedSize(b); size > 0 {
					if !inOrder(t, *last) {
						return nil, 0, stampError(RecType(b[0]), rank, t, *last)
					}
					*last, *timed = t, true
					d.r += size
					continue
				}
			}
		}
		recs = recs[:len(recs)+1]
		r := &recs[len(recs)-1]
		if err := d.readRecord(r); err != nil {
			return nil, 0, err
		}
		keep := defs
		if r.Type.IsDef() {
			if *timed {
				return nil, 0, defError(r.Type)
			}
			ndefs++
		} else {
			if !inOrder(r.Time, *last) {
				return nil, 0, stampError(r.Type, rank, r.Time, *last)
			}
			*last, *timed = r.Time, true
			keep = r.Time >= t0 && r.Time <= t1
		}
		if !keep {
			recs = recs[:len(recs)-1]
			continue
		}
		if !keepsRule(r.Type, r.Rank, r.Aux1, rank, numRanks) {
			return nil, 0, recordError(r.Type, r.Rank, r.Aux1, rank, numRanks)
		}
	}
	if t := RecType(d.getByte()); d.err == nil && t != RecEndBlock {
		return nil, 0, fmt.Errorf("clog2: block for rank %d not terminated (got %v)", rank, t)
	}
	return recs, ndefs, d.err
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
			if end := body + n; end <= d.w {
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
