package clog2

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
)

// The query side of the block table: time and rank queries over a log that
// seek straight to the blocks a query can touch instead of streaming the
// whole log — the raw-log analogue of the level-of-detail index SLOG-2
// keeps on the render side.
//
// The table is strictly an accelerator: whenever the full scan of a log
// succeeds and the table is the one ScanTable makes of it (a fence that
// lies under a valid CRC drops records unseen: `clogdump -verify` finds
// it), every answer computed through the table is identical to the full
// scan's, and Walk degrades to the full scan when a log has no table
// (an older writer, a cut), when the table fails validation, or when it
// lies about a block it selected. A query reads only the blocks it
// selects, so damage in a block it does not select cannot reach its
// answer, and the answer stands while the full scan fails: that damage
// is what `clogdump -verify` reports.

// ErrCorrupt wraps Walk's report of a table that validated and then
// disagreed with a block it selected: the table lies about the log.
var ErrCorrupt = errors.New("clog2: block table does not match the log")

// Query selects records: the timed records (every record but a
// definition) of one rank or every rank stamped inside a window, and the
// definitions. The reader cuts it (NextIn), so a visitor gets exactly what
// its query selects. The zero Query selects nothing useful — start from
// MatchAll and narrow.
type Query struct {
	// T0/T1 bound the time window (inclusive): a timed record stamped
	// outside [T0, T1] is not selected.
	T0, T1 float64
	// Rank selects one rank's timed records; negative means every rank's.
	Rank int32
	// IncludeDefs selects every definition, whatever the window and the
	// rank: windowed profiling needs the defs to classify states no
	// matter where the window lands.
	IncludeDefs bool
}

// MatchAll returns the query that selects every record.
func MatchAll() Query {
	return Query{T0: math.Inf(-1), T1: math.Inf(1), Rank: -1, IncludeDefs: true}
}

// CheckWindow refuses a time window [t0, t1] that selects nothing by its
// bounds alone: a NaN bound, which compares false with every time and so
// would read as no bound at all, a window that ends before it starts, and
// an infinite bound on the wrong side (t0 = +Inf, t1 = -Inf). An infinite
// bound on its own side is no bound. Walk and every command that takes a
// window check it here.
func CheckWindow(t0, t1 float64) error {
	if math.IsNaN(t0) || math.IsNaN(t1) || t1 < t0 || math.IsInf(t0, 1) || math.IsInf(t1, -1) {
		return fmt.Errorf("empty time window [%g,%g]", t0, t1)
	}
	return nil
}

// Select returns the indices (in file order) of the blocks a scan for q
// must visit: blocks whose fences intersect the query, plus — with
// q.IncludeDefs — every block holding definition records. The selection
// is conservative: a selected block may hold no record q selects, but no
// unselected block can.
func (t *Table) Select(q Query) []int {
	sel := make([]int, 0, len(t.Blocks))
	for i := range t.Blocks {
		if blockMatches(&t.Blocks[i], q) {
			sel = append(sel, i)
		}
	}
	return sel
}

func blockMatches(b *BlockMeta, q Query) bool {
	if q.IncludeDefs && b.Defs > 0 {
		return true
	}
	// Only definition records left? Nothing a filtered scan wants.
	if b.Records <= b.Defs {
		return false
	}
	if b.TMax < q.T0 || b.TMin > q.T1 {
		return false
	}
	return q.Rank < 0 || q.Rank == b.Rank
}

// LoadTable reads and validates the block table at the end of the log at
// path (ReadTable). When the log has no usable table, the error wraps
// ErrNoTable and says why.
func LoadTable(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readTableFile(f)
}

func readTableFile(f *os.File) (*Table, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return ReadTable(f, info.Size())
}

// Walk is the file-order walk, for output that keeps the file's order
// (clogdump's dump); a consumer that folds ranks is EachRank's. It opens
// the log at path once and visits, in file order, the blocks that can
// hold a record q matches: those its table selects (Select, then scan's
// checked reading) when the table is usable as EachRank takes it
// (usableTable), or every block of the file. begin takes the log's rank
// count and returns the visitor for one attempt. When the table validates
// and then disagrees with a block mid-scan, Walk calls begin again and
// reads every block, so a consumer keeps only what its
// latest begin started: the blocks before the one the table lies about
// were delivered. Any other error, the visitor's own among them, ends the
// walk at once; a window CheckWindow refuses ends it before the log is
// opened. The full scan hands blocks over as Each does, so when it fails
// the visitor has had the log's complete blocks. Either way every block is
// cut to q by the reader (NextIn): the visitor gets, in file order, exactly
// the records q selects and tests none of them; a block may be empty.
// tableUsed says what the answer rests on: true, the table selected the
// blocks; false, it could not and every block was read.
func Walk(path string, q Query, begin func(numRanks int) func(Block) error) (tableUsed bool, err error) {
	if err := CheckWindow(q.T0, q.T1); err != nil {
		return false, fmt.Errorf("clog2: %w", err)
	}
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return false, err
	}
	if t := usableTable(f, info.Size()); t != nil {
		if err := scan(f, t, t.Select(q), q, begin(t.NumRanks)); !errors.Is(err, ErrCorrupt) {
			return true, err
		}
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return false, err
	}
	br, err := NewBlockReader(f)
	if err != nil {
		return false, err
	}
	return false, br.EachIn(q, begin(br.NumRanks()))
}

// scan visits the selected blocks of the log rs holds in file order,
// seeking over everything in between; consecutive selected blocks are
// read without a seek. fn gets each block cut to q (NextAt, into the
// buffer Each would use), and must not retain it. Both buffers of the scan
// go back to their pools when it returns, so a window allocates what it
// keeps and not what it reads through. A block that does not match its
// table entry surfaces as an ErrCorrupt-wrapped error, so callers can
// degrade to the full scan; the file system's errors and fn's are returned
// as they are.
func scan(rs io.ReadSeeker, t *Table, sel []int, q Query, fn func(Block) error) error {
	if len(sel) == 0 {
		return nil
	}
	for _, i := range sel {
		if i < 0 || i >= len(t.Blocks) {
			return fmt.Errorf("clog2: block selection %d out of range", i)
		}
	}
	br, err := NewBlockReaderAt(rs, t.Blocks[sel[0]].Offset, t.NumRanks)
	if err != nil {
		return err
	}
	defer br.Release()
	buf := blockPool.Get().(*[MaxBlockRecords]Record)
	defer blockPool.Put(buf)
	for _, i := range sel {
		b, err := br.NextAt(buf[:0], q, &t.Blocks[i])
		if err == nil {
			err = fn(b)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// NextAt is NextIn at the block the table entry m places, seeking to it
// unless the reader stands there, and checked against m: its rank, the
// count its header declares and where it ends. A block that does not
// decode or does not match means the table lies about the file, an
// ErrCorrupt-wrapped error; the file system's errors are returned as they
// are. The check covers what a walk trusts the entry for: its rank, the
// count its header declares, how many of those are definitions (which a
// walk decodes from the entries that count them, before it reads the
// rest: RankLog.Defs) and where it ends. Only readers opened with
// NewBlockReaderAt can seek.
func (br *BlockReader) NextAt(buf []Record, q Query, m *BlockMeta) (Block, error) {
	if m.Offset != br.d.offset() {
		if err := br.SeekTo(m.Offset); err != nil {
			return Block{}, err
		}
	}
	b, n, err := br.NextIn(buf, q)
	if err != nil {
		if pe := (*fs.PathError)(nil); errors.As(err, &pe) {
			return Block{}, err
		}
		return Block{}, fmt.Errorf("%w: block at offset %d: %v", ErrCorrupt, m.Offset, err)
	}
	if b.Rank != m.Rank || n != m.Records || br.lastDefs != m.Defs || br.lastEnd != m.Offset+m.Length {
		return Block{}, fmt.Errorf("%w: block at offset %d does not match its table entry", ErrCorrupt, m.Offset)
	}
	return b, nil
}
