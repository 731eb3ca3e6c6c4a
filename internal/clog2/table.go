package clog2

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// A log a Writer closes carries its own block table: after the end-log
// marker come the table and a fixed-size footer (the signature-plus-fixed-
// size layout of a log header, placed at the end of the file, where a
// writer that appends puts it last). A reader of records stops at the
// end-log marker and never sees either; a reader that seeks to the blocks
// a query needs (internal/idx) reads the footer, then the table, and
// trusts neither before ReadTable has validated both. Little-endian:
//
//	table   totalRecords i64, nblocks u32, then per block (64 bytes):
//	          offset i64, length i64, rank i32, records i32, defs i32, msgs i32,
//	          tmin f64, tmax f64, rankMin i32, rankMax i32, chanMin i32, chanMax i32
//	footer  tableOffset i64, crc32 u32 (IEEE, over the table), TableMagic

// TableMagic ends the footer; its digits are the table's version.
const TableMagic = "CLOGTAB-01"

// FooterSize is the byte length of the footer.
const FooterSize = 8 + 4 + len(TableMagic)

const (
	tableHeadSize  = 8 + 4
	tableEntrySize = 64
	// maxTableSize caps the table ReadTable buffers, so a hostile footer
	// cannot force an unbounded allocation. 64 MiB of entries indexes about
	// a terabyte of log at the merge's block granularity.
	maxTableSize = 64 << 20
)

// ErrNoTable wraps every reason ReadTable gives for not returning a
// table: the log ends without one (an older writer, a cut), or what it
// ends with fails validation.
var ErrNoTable = errors.New("clog2: no usable block table")

// BlockMeta is a block's table entry: where the block lies and what it
// holds, the fences a query is tested against.
type BlockMeta struct {
	// Offset/Length bracket the block's bytes (header through end-block
	// marker) — the seek target for NewBlockReaderAt.
	Offset, Length int64
	// Rank is the block header's rank.
	Rank int32
	// Records counts all records in the block; Defs the definition records
	// among them (RecType.IsDef: the records a windowed consumer processes
	// wherever its window lies); Msgs the MsgEvt records.
	Records, Defs, Msgs int32
	// TMin/TMax fence the timestamps of the block's non-definition records
	// (events, messages, timeshifts — everything a time window filters).
	// Valid only when Records > Defs; else TMin > TMax.
	TMin, TMax float64
	// RankMin/RankMax fence the Rank field of non-definition records
	// (normally all equal to Rank, but salvaged logs may interleave).
	RankMin, RankMax int32
	// ChanMin/ChanMax fence the channel (tag) of MsgEvt records. Valid only
	// when Msgs > 0.
	ChanMin, ChanMax int32
}

func newBlockMeta(rank int32, offset int64) BlockMeta {
	return BlockMeta{
		Offset:  offset,
		Rank:    rank,
		TMin:    math.Inf(1),
		TMax:    math.Inf(-1),
		RankMin: math.MaxInt32,
		RankMax: math.MinInt32,
		ChanMin: math.MaxInt32,
		ChanMax: math.MinInt32,
	}
}

// addRecords counts recs into the entry and widens its fences over them.
func (m *BlockMeta) addRecords(recs []Record) {
	for i := range recs {
		r := &recs[i]
		m.add(r.Type, r.Time, r.Rank, r.Aux2)
	}
}

// addEncoded is addRecords over records p holds encoded, whole and of the
// timed types: it reads the fields the fences need where they lie.
func (m *BlockMeta) addEncoded(p []byte) error {
	for len(p) > 0 {
		n := TimedSize(p)
		if n == 0 {
			return fmt.Errorf("clog2: an encoded %v record is not timed or is cut short", RecType(p[0]))
		}
		var tag int32
		if RecType(p[0]) == RecMsgEvt {
			tag = le32(p[18:])
		}
		m.add(RecType(p[0]), leF64(p[1:]), le32(p[9:]), tag)
		p = p[n:]
	}
	return nil
}

// add counts one record of type t into the entry: a definition by its type
// alone, any other by its time and rank, and a message half by its tag too.
func (m *BlockMeta) add(t RecType, time float64, rank, tag int32) {
	m.Records++
	if t.IsDef() {
		m.Defs++
		return
	}
	// Comparisons, not min and max: a NaN time stays out of the fence.
	if time < m.TMin {
		m.TMin = time
	}
	if time > m.TMax {
		m.TMax = time
	}
	m.RankMin = min(m.RankMin, rank)
	m.RankMax = max(m.RankMax, rank)
	if t == RecMsgEvt {
		m.Msgs++
		m.ChanMin = min(m.ChanMin, tag)
		m.ChanMax = max(m.ChanMax, tag)
	}
}

// Table is a log's block table: an entry for every block, in file order.
type Table struct {
	// NumRanks is the log header's rank count; the table does not store it.
	NumRanks     int
	TotalRecords int64
	Blocks       []BlockMeta
}

// AddRun accounts one run of the block br is in, as NextRun or Each hands
// it out: the block's first run opens its entry at the offset br reports,
// moved by shift, and its last run closes it. The shift is for a caller
// that reads blocks at one offset to write them at another (the merge
// splices a rank's blocks in behind the others').
func (t *Table) AddRun(br *BlockReader, run Block, shift int64) {
	start, end := br.BlockBounds()
	// A closed entry has a length (a block is 9 bytes at least): none
	// means the last entry is the block this run belongs to.
	if n := len(t.Blocks); n == 0 || t.Blocks[n-1].Length != 0 {
		t.Blocks = append(t.Blocks, newBlockMeta(run.Rank, start+shift))
	}
	m := &t.Blocks[len(t.Blocks)-1]
	m.addRecords(run.Records)
	t.TotalRecords += int64(len(run.Records))
	if end != 0 {
		m.Length = end + shift - m.Offset
	}
}

// LogSize is the length of the log t describes, header through end-log
// marker: the offset its table starts at.
func (t *Table) LogSize() int64 {
	if n := len(t.Blocks); n > 0 {
		return t.Blocks[n-1].Offset + t.Blocks[n-1].Length + 1
	}
	return int64(HeaderSize) + 1
}

// ScanTable reads the log r holds to its end-log marker and returns the
// table a Writer ends it with: for a log that has none, and to check one
// that has.
func ScanTable(r io.Reader) (*Table, error) {
	br, err := NewBlockReader(r)
	if err != nil {
		return nil, err
	}
	t := &Table{NumRanks: br.NumRanks()}
	if err := br.Each(func(run Block) error { t.AddRun(br, run, 0); return nil }); err != nil {
		return nil, err
	}
	return t, nil
}

// AppendTable appends t and its footer to dst: the bytes Close writes
// behind the end-log marker of the log t describes.
func AppendTable(dst []byte, t *Table) []byte {
	le := binary.LittleEndian
	base := len(dst)
	dst = le.AppendUint32(le.AppendUint64(dst, uint64(t.TotalRecords)), uint32(len(t.Blocks)))
	for i := range t.Blocks {
		b := &t.Blocks[i]
		dst = le.AppendUint64(le.AppendUint64(dst, uint64(b.Offset)), uint64(b.Length))
		dst = append32(dst, b.Rank, b.Records, b.Defs, b.Msgs)
		dst = le.AppendUint64(le.AppendUint64(dst, math.Float64bits(b.TMin)), math.Float64bits(b.TMax))
		dst = append32(dst, b.RankMin, b.RankMax, b.ChanMin, b.ChanMax)
	}
	crc := crc32.ChecksumIEEE(dst[base:])
	return append(le.AppendUint32(le.AppendUint64(dst, uint64(t.LogSize())), crc), TableMagic...)
}

// ReadTable reads the block table at the end of the log r holds, size
// bytes of it, and returns it once it has validated: the log's header, the
// footer's signature, a table that lies between the end-log marker and the
// footer and is no longer than maxTableSize, its CRC, entries whose counts
// agree with each other and that tile the log from its header to its
// end-log marker without a gap, and a record total they sum to. Every
// failure wraps ErrNoTable and names the reason. An entry that passes all
// of that and still lies about its block (a rank, a record count) is found
// by the reader of that block: idx.Walk checks each run it reads.
func ReadTable(r io.ReaderAt, size int64) (*Table, error) {
	if size < int64(HeaderSize+1+tableHeadSize+FooterSize) {
		return nil, fmt.Errorf("%w: %d bytes is shorter than a log with a table", ErrNoTable, size)
	}
	var head [HeaderSize]byte
	var foot [FooterSize]byte
	if err := readAt(r, head[:], 0); err != nil {
		return nil, fmt.Errorf("%w: reading the header: %v", ErrNoTable, err)
	}
	if string(head[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrNoTable, head[:len(Magic)])
	}
	numRanks := le32(head[len(Magic):])
	if numRanks < 1 || numRanks > 1<<20 {
		return nil, fmt.Errorf("%w: implausible rank count %d", ErrNoTable, numRanks)
	}
	if err := readAt(r, foot[:], size-int64(FooterSize)); err != nil {
		return nil, fmt.Errorf("%w: reading the footer: %v", ErrNoTable, err)
	}
	if sig := foot[12:]; string(sig) != TableMagic {
		return nil, fmt.Errorf("%w: the file ends in %q, not a %s footer", ErrNoTable, sig, TableMagic)
	}
	at := int64(binary.LittleEndian.Uint64(foot[:]))
	n := size - int64(FooterSize) - at
	if at <= int64(HeaderSize) || n < tableHeadSize || n > maxTableSize {
		return nil, fmt.Errorf("%w: a table at offset %d of a %d-byte file", ErrNoTable, at, size)
	}
	// The byte before the table is the end-log marker: read it with it.
	buf := make([]byte, 1+n)
	if err := readAt(r, buf, at-1); err != nil {
		return nil, fmt.Errorf("%w: reading the table: %v", ErrNoTable, err)
	}
	if RecType(buf[0]) != RecEndLog {
		return nil, fmt.Errorf("%w: the table does not follow an end-log marker", ErrNoTable)
	}
	tab := buf[1:]
	if got, want := crc32.ChecksumIEEE(tab), binary.LittleEndian.Uint32(foot[8:]); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (%08x != %08x)", ErrNoTable, got, want)
	}
	return decodeTable(tab, int(numRanks), at-1)
}

// readAt fills p from r at off. A ReaderAt may report io.EOF beside a read
// that ends the input and still filled p: that is a success.
func readAt(r io.ReaderAt, p []byte, off int64) error {
	if n, err := r.ReadAt(p, off); n < len(p) {
		return err
	}
	return nil
}

// decodeTable parses a table whose CRC held, for a log whose end-log
// marker is at offset end.
func decodeTable(tab []byte, numRanks int, end int64) (*Table, error) {
	t := &Table{NumRanks: numRanks, TotalRecords: int64(binary.LittleEndian.Uint64(tab))}
	nblocks := int64(binary.LittleEndian.Uint32(tab[8:]))
	if got := int64(len(tab) - tableHeadSize); got != nblocks*tableEntrySize {
		return nil, fmt.Errorf("%w: %d bytes of entries for %d blocks", ErrNoTable, got, nblocks)
	}
	t.Blocks = make([]BlockMeta, nblocks)
	next, sum := int64(HeaderSize), int64(0)
	for i := range t.Blocks {
		e := tab[tableHeadSize+i*tableEntrySize:]
		b := &t.Blocks[i]
		*b = BlockMeta{
			Offset: int64(binary.LittleEndian.Uint64(e)), Length: int64(binary.LittleEndian.Uint64(e[8:])),
			Rank: le32(e[16:]), Records: le32(e[20:]), Defs: le32(e[24:]), Msgs: le32(e[28:]),
			TMin: leF64(e[32:]), TMax: leF64(e[40:]),
			RankMin: le32(e[48:]), RankMax: le32(e[52:]), ChanMin: le32(e[56:]), ChanMax: le32(e[60:]),
		}
		if b.Offset != next || b.Length <= 0 || b.Length > end-next {
			return nil, fmt.Errorf("%w: block %d spans [%d,+%d), the log's next block starts at %d and its end-log marker is at %d",
				ErrNoTable, i, b.Offset, b.Length, next, end)
		}
		if b.Records < 0 || b.Defs < 0 || b.Msgs < 0 || b.Defs > b.Records || b.Msgs > b.Records-b.Defs {
			return nil, fmt.Errorf("%w: block %d counts are inconsistent", ErrNoTable, i)
		}
		next += b.Length
		sum += int64(b.Records)
	}
	if next != end {
		return nil, fmt.Errorf("%w: the blocks end at %d, the end-log marker is at %d", ErrNoTable, next, end)
	}
	if sum != t.TotalRecords {
		return nil, fmt.Errorf("%w: block records sum to %d, the table says %d", ErrNoTable, sum, t.TotalRecords)
	}
	return t, nil
}
