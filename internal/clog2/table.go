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
// a query needs (Walk, walk.go) reads the footer, then the table, and
// trusts neither before ReadTable has validated both. Little-endian:
//
//	table   nblocks u32, then per block (36 bytes):
//	          length i64, rank i32, records i32, defs i32, tmin f64, tmax f64
//	footer  tableOffset i64, crc32 u32 (IEEE, over the table), TableMagic
//
// The table holds what a query is tested against and nothing it can
// derive: a block starts where the one before it ends (the first behind
// the header), and the log's record total is the sum of the blocks'.

// TableMagic ends the footer; its digits are the table's version, the one
// version read (an earlier table is ErrNoTable: the scan answers).
const TableMagic = "CLOGTAB-03"

// FooterSize is the byte length of the footer.
const FooterSize = 8 + 4 + len(TableMagic)

const (
	tableHeadSize  = 4
	tableEntrySize = 36
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
	// marker) — the seek target for NewBlockReaderAt. The table stores the
	// length; the offset is the end of the block before.
	Offset, Length int64
	// Rank is the block header's rank, every record's (Block).
	Rank int32
	// Records counts all records in the block; Defs the definition records
	// among them (RecType.IsDef: the records Query.IncludeDefs selects
	// wherever the window lies).
	Records, Defs int32
	// TMin/TMax fence the timestamps of the block's non-definition records
	// (events, messages, timeshifts — everything a time window filters):
	// the first and the last of them, which the rule of a block puts in
	// time order. Valid only when Records > Defs; else TMin > TMax.
	TMin, TMax float64
}

func newBlockMeta(rank int32, offset int64) BlockMeta {
	return BlockMeta{Offset: offset, Rank: rank, TMin: math.Inf(1), TMax: math.Inf(-1)}
}

// addRecords counts recs into the entry and widens its fences over them,
// refusing the first record that breaks the rule of a block of m.Rank in a
// log of numRanks ranks (keepsRule, a definition after a timed record of
// the entry or, when timed, of the log before it, then add).
func (m *BlockMeta) addRecords(recs []Record, numRanks int, last *float64, timed bool) error {
	for i := range recs {
		r := &recs[i]
		if !keepsRule(r.Type, r.Rank, r.Aux1, m.Rank, numRanks) {
			return recordError(r.Type, r.Rank, r.Aux1, m.Rank, numRanks)
		}
		if r.Type.IsDef() && (timed || m.Records > m.Defs) {
			return defError(r.Type)
		}
		if err := m.add(r.Type, r.Time, last); err != nil {
			return err
		}
	}
	return nil
}

// add counts one record of type t into the entry: a definition by its type
// alone, any other by its time, which it refuses out of order after the
// rank's last stamp *last (inOrder) and makes *last and the fence's TMax.
func (m *BlockMeta) add(t RecType, time float64, last *float64) error {
	m.Records++
	if t.IsDef() {
		m.Defs++
		return nil
	}
	if !inOrder(time, *last) {
		return stampError(t, m.Rank, time, *last)
	}
	*last, m.TMax = time, time
	if m.Records-m.Defs == 1 {
		m.TMin = time
	}
	return nil
}

// Table is a log's block table: an entry for every block, in file order.
type Table struct {
	// NumRanks is the log header's rank count, and TotalRecords the sum of
	// the blocks' Records; the table stores neither.
	NumRanks     int
	TotalRecords int64
	Blocks       []BlockMeta
}

// LogSize is the length of the log t describes, header through end-log
// marker: the offset its table starts at.
func (t *Table) LogSize() int64 {
	if n := len(t.Blocks); n > 0 {
		return t.Blocks[n-1].Offset + t.Blocks[n-1].Length + 1
	}
	return int64(HeaderSize) + 1
}

// ScanTable reads the log r holds to its end-log marker, block by block,
// and returns the table a Writer ends it with: for a log that has none, and
// to check one that has. A log that cannot be read to its end-log marker
// is held to Each's rule: the table is that of its complete blocks,
// returned beside the error of the first block that could not be read. The
// table is nil only when r does not begin with a log header.
func ScanTable(r io.Reader) (*Table, error) {
	br, err := NewBlockReader(r)
	if err != nil {
		return nil, err
	}
	t := &Table{NumRanks: br.NumRanks()}
	err = br.Each(func(b Block) error {
		start, end := br.BlockBounds()
		m := newBlockMeta(b.Rank, start)
		last := noStamp // the reader has held the block to the log before it
		if err := m.addRecords(b.Records, t.NumRanks, &last, false); err != nil {
			return err
		}
		m.Length = end - start
		t.Blocks = append(t.Blocks, m)
		t.TotalRecords += int64(m.Records)
		return nil
	})
	return t, err
}

// AppendTable appends t and its footer to dst: the bytes Close writes
// behind the end-log marker of the log t describes.
func AppendTable(dst []byte, t *Table) []byte {
	le := binary.LittleEndian
	base := len(dst)
	dst = le.AppendUint32(dst, uint32(len(t.Blocks)))
	for i := range t.Blocks {
		b := &t.Blocks[i]
		dst = append32(le.AppendUint64(dst, uint64(b.Length)), b.Rank, b.Records, b.Defs)
		dst = le.AppendUint64(le.AppendUint64(dst, math.Float64bits(b.TMin)), math.Float64bits(b.TMax))
	}
	crc := crc32.ChecksumIEEE(dst[base:])
	return append(le.AppendUint32(le.AppendUint64(dst, uint64(t.LogSize())), crc), TableMagic...)
}

// ReadTable reads the block table at the end of the log r holds, size
// bytes of it, and returns it once it has validated: the log's header, the
// footer's signature, a table that lies between the end-log marker and the
// footer and is no longer than maxTableSize, its CRC, entries whose counts
// agree with each other, and lengths that sum to the end-log marker: the
// blocks tile the log from its header on. Every failure wraps ErrNoTable
// and names the reason. An entry that passes all of that and still lies
// about its block (a rank, a record count) is found by the reader of that
// block: Walk checks each block it reads.
func ReadTable(r io.ReaderAt, size int64) (*Table, error) {
	if size < int64(HeaderSize+1+tableHeadSize+FooterSize) {
		return nil, fmt.Errorf("%w: %d bytes is shorter than a log with a table", ErrNoTable, size)
	}
	var head [HeaderSize]byte
	var foot [FooterSize]byte
	if err := readAt(r, head[:], 0); err != nil {
		return nil, fmt.Errorf("%w: reading the header: %v", ErrNoTable, err)
	}
	if err := checkMagic(head[:len(Magic)]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoTable, err)
	}
	numRanks := le32(head[len(Magic):])
	if numRanks < 1 || numRanks > MaxRanks {
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
	t := &Table{NumRanks: numRanks}
	nblocks := int64(binary.LittleEndian.Uint32(tab))
	if got := int64(len(tab) - tableHeadSize); got != nblocks*tableEntrySize {
		return nil, fmt.Errorf("%w: %d bytes of entries for %d blocks", ErrNoTable, got, nblocks)
	}
	t.Blocks = make([]BlockMeta, nblocks)
	next := int64(HeaderSize)
	for i := range t.Blocks {
		e := tab[tableHeadSize+i*tableEntrySize:]
		b := &t.Blocks[i]
		*b = BlockMeta{Offset: next, Length: int64(binary.LittleEndian.Uint64(e)),
			Rank: le32(e[8:]), Records: le32(e[12:]), Defs: le32(e[16:]), TMin: leF64(e[20:]), TMax: leF64(e[28:])}
		if b.Length <= 0 || b.Length > end-next {
			return nil, fmt.Errorf("%w: block %d of %d bytes at offset %d, the end-log marker is at %d", ErrNoTable, i, b.Length, next, end)
		}
		if b.Records < 0 || b.Defs < 0 || b.Defs > b.Records {
			return nil, fmt.Errorf("%w: block %d counts are inconsistent", ErrNoTable, i)
		}
		next += b.Length
		t.TotalRecords += int64(b.Records)
	}
	if next != end {
		return nil, fmt.Errorf("%w: the blocks' lengths sum to offset %d, the end-log marker is at %d", ErrNoTable, next, end)
	}
	return t, nil
}
