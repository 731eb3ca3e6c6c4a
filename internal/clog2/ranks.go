package clog2

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"
)

// The per-rank walk. A block holds one rank's records in time order and
// the definitions lead the log (Block), so once the definitions are known
// each rank is a stream of its own, joined to the others only at its
// message halves: the walk hands whole ranks to its workers, each rank's
// blocks in file order, read through the log's block table (ReadTable's
// when it is usable, ScanTable's otherwise) and checked against it
// (NextAt). Consumers keep what they fold per rank and merge the ranks in
// rank order after the walk, so their answer does not depend on the worker
// count, nor on whether the log was read through the table or as a stream.

// RankVisitor folds one rank's blocks, handed over in file order: every
// record of its rank the walk's query selects but the definitions, which
// the walk hands to begin. A block's records are valid until Visit returns.
type RankVisitor interface {
	Visit(Block) error
}

// An Input is a log as a per-rank walk reads it (EachRank): through its
// block table (TableInput), or as a stream in one pass in file order
// (StreamInput). The caller chooses: a tool that opens a log file reads it
// through its table (FileInput), one handed a reader reads it as a stream.
type Input struct {
	src    Source
	stream io.Reader
}

// TableInput is the log src holds, read through its block table.
func TableInput(src Source) Input { return Input{src: src} }

// StreamInput is the log r holds, read once in file order.
func StreamInput(r io.Reader) Input { return Input{stream: r} }

// FileInput is the log f holds from its start: read through its block
// table when f is a regular file, as a stream when it is not (a pipe).
func FileInput(f *os.File) (Input, error) {
	info, err := f.Stat()
	if err != nil {
		return Input{}, err
	}
	if !info.Mode().IsRegular() {
		return StreamInput(f), nil
	}
	return TableInput(Source{R: f, Size: info.Size()}), nil
}

// EachRank reads the log in holds rank by rank, cut to q, and returns a
// visitor for each rank that had a block to read, in rank order. begin
// gets the header's rank count and the log's definitions in file order,
// decoded once whatever q.IncludeDefs, and returns the function that makes
// a rank's visitor; each visitor is used by the worker that made it alone.
//
// A TableInput is read through its block table (WalkRanks) on up to
// workers goroutines, which make the ranks' visitors at the same time for
// different ranks; tableUsed says whether that was the table the walk ends
// with. When the table lies about a block, begin is called again and every
// rank is read again through the table ScanTable makes, so a consumer keeps
// only what its latest begin started. A StreamInput feeds the same
// visitors from one serial pass in file order: ranks are visited one block
// at a time, interleaved as the file lays them out, and tableUsed is
// false. Either way the visitors of one rank see the same records in the
// same order. A window CheckWindow refuses is refused before the log is
// read.
func EachRank[V RankVisitor](in Input, q Query, workers int, begin func(numRanks int, defs []Record) func(rank int32) V) (visitors []V, tableUsed bool, err error) {
	if err := CheckWindow(q.T0, q.T1); err != nil {
		return nil, false, fmt.Errorf("clog2: %w", err)
	}
	if in.stream != nil {
		visitors, err = eachRankStream(in.stream, q, begin)
		return visitors, false, err
	}
	tableUsed, err = WalkRanks([]Source{in.src}, q, workers, func(logs []*RankLog) (int, func(int, []*RankCursor) error) {
		l := logs[0]
		ranks, rankVisitor := l.Ranks(), begin(l.NumRanks, l.Defs)
		visitors = make([]V, len(ranks))
		return len(ranks), func(i int, cs []*RankCursor) error {
			v := rankVisitor(ranks[i])
			visitors[i] = v
			c := cs[0]
			for c.Open(ranks[i]); ; {
				b, err := c.Next()
				if err == io.EOF {
					return nil
				}
				if err == nil {
					err = v.Visit(b)
				}
				if err != nil {
					return err
				}
			}
		}
	})
	if err != nil {
		return nil, false, err
	}
	return visitors, tableUsed, nil
}

// eachRankStream is EachRank over a stream: one pass in file order, the
// definitions gathered from the head of the log until its first record
// that is not one, each rank's visitor made at its first block after that.
func eachRankStream[V RankVisitor](r io.Reader, q Query, begin func(int, []Record) func(int32) V) ([]V, error) {
	br, err := NewBlockReader(r)
	if err != nil {
		return nil, err
	}
	var defs []Record
	var rankVisitor func(int32) V
	var visitors []V
	var ranks []int32
	index := map[int32]int{}
	q.IncludeDefs = true
	err = br.EachIn(q, func(b Block) error {
		recs := b.Records
		if rankVisitor == nil {
			// The reader refuses a definition after a timed record, so
			// those of a block are its head and no later block has one.
			n := 0
			for n < len(recs) && recs[n].Type.IsDef() {
				n++
			}
			defs, recs = append(defs, recs[:n]...), recs[n:]
			if len(recs) == 0 {
				return nil
			}
			rankVisitor = begin(br.NumRanks(), defs)
		}
		i, ok := index[b.Rank]
		if !ok {
			i = len(visitors)
			index[b.Rank] = i
			visitors, ranks = append(visitors, rankVisitor(b.Rank)), append(ranks, b.Rank)
		}
		return visitors[i].Visit(Block{Rank: b.Rank, Records: recs})
	})
	if err != nil {
		return nil, err
	}
	if rankVisitor == nil {
		begin(br.NumRanks(), defs)
	}
	order := make([]int, len(visitors))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return int(ranks[a]) - int(ranks[b]) })
	sorted := make([]V, len(order))
	for i, j := range order {
		sorted[i] = visitors[j]
	}
	return sorted, nil
}

// Source is a log a walk reads: Size bytes at R, from offset 0.
type Source struct {
	R    io.ReaderAt
	Size int64
}

// LogError is a walk's failure to read one of the logs it walks, Log its
// index among them; it reads as the failure itself.
type LogError struct {
	Log int
	Err error
}

func (e *LogError) Error() string { return e.Err.Error() }
func (e *LogError) Unwrap() error { return e.Err }

// RankLog is a log opened for a per-rank walk: its header's rank count,
// its definitions, and the blocks a query selects, by rank.
type RankLog struct {
	// NumRanks is the header's rank count; Defs the log's definitions, in
	// file order.
	NumRanks int
	Defs     []Record

	src     Source
	index   int   // among the logs of the walk, for LogError
	q       Query // the walk's query, definitions left to Defs
	t       *Table
	scanned bool // t is ScanTable's, so it cannot lie
	lied    atomic.Bool
	spare   *RankCursor // the cursor the definitions were read with, for a worker
	// sel holds the selected entries by rank, in file order within one:
	// ranks[j]'s are sel[starts[j]:starts[j+1]].
	sel    []int
	ranks  []int32
	starts []int
}

// Ranks returns the ranks that have a selected block, ascending.
func (l *RankLog) Ranks() []int32 { return l.ranks }

// WalkRanks walks the logs srcs hold together, rank by rank, on up to
// workers goroutines (at least one, and no more than there are ranks to
// visit). begin gets each log opened for q (openRankLog) and returns the
// number n of rank visits and visit; visit(i, cs) is called once for each
// i in [0, n), in ascending order of i across the workers, with a cursor
// on each log (cs[k] on srcs[k]) that it stands on the ranks it reads
// (RankCursor.Open). A worker keeps its cursors from one visit to the next.
// Once a visit fails no visit starts, and the error is that of the least i
// that failed, which does not depend on the worker count.
//
// This is the one place that decides between a log's table and its scan.
// When a block does not match the entry of a table that ReadTable
// validated (ErrCorrupt), the walk takes ScanTable's table of that log,
// calls begin again and visits every i again. tableUsed is true when every
// log was read through the table it ends with. An error of a log's own
// (one that cannot be opened or scanned, a block ScanTable's table cannot
// read) is a *LogError naming the log.
func WalkRanks(srcs []Source, q Query, workers int, begin func(logs []*RankLog) (n int, visit func(i int, cs []*RankCursor) error)) (tableUsed bool, err error) {
	logs := make([]*RankLog, len(srcs))
	for k, src := range srcs {
		if logs[k], err = openRankLog(src, k, q, false); err != nil {
			return false, err
		}
	}
	for {
		n, visit := begin(logs)
		err = eachVisit(logs, n, workers, visit)
		again := false
		for k, l := range logs {
			if l.lied.Load() {
				if logs[k], err = openRankLog(srcs[k], k, q, true); err != nil {
					return false, err
				}
				again = true
			}
		}
		if !again {
			tableUsed = true
			for _, l := range logs {
				tableUsed = tableUsed && !l.scanned
			}
			return tableUsed, err
		}
	}
}

// eachVisit runs visit for each i in [0, n) on up to workers goroutines.
func eachVisit(logs []*RankLog, n, workers int, visit func(int, []*RankCursor) error) error {
	workers = max(1, min(workers, n))
	cursors := make([][]*RankCursor, workers)
	for w := range cursors {
		cursors[w] = make([]*RankCursor, len(logs))
		for k, l := range logs {
			cursors[w][k] = l.cursor()
			defer cursors[w][k].release()
		}
	}
	var next atomic.Int64
	var stop atomic.Bool
	var mu sync.Mutex
	failed, failure := n, error(nil)
	work := func(cs []*RankCursor) {
		for !stop.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if err := visit(i, cs); err != nil {
				mu.Lock()
				if i < failed {
					failed, failure = i, err
				}
				mu.Unlock()
				stop.Store(true)
			}
		}
	}
	if workers == 1 {
		work(cursors[0])
		return failure
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for _, cs := range cursors {
		go func() {
			defer wg.Done()
			work(cs)
		}()
	}
	wg.Wait()
	return failure
}

// openRankLog opens the log src holds for a per-rank walk of q: it takes
// the log's table — ReadTable's when it is usable and scan is false, else
// ScanTable's, and ScanTable's too when a block the definitions sit in
// does not match ReadTable's entry — selects the blocks q can touch, and
// decodes the definitions. Errors are *LogErrors of index.
func openRankLog(src Source, index int, q Query, scan bool) (*RankLog, error) {
	for {
		l := &RankLog{src: src, index: index, q: q}
		l.q.IncludeDefs = false
		var err error
		if !scan {
			l.t = usableTable(src.R, src.Size)
		}
		if l.t == nil {
			l.scanned = true
			l.t, err = ScanTable(io.NewSectionReader(src.R, 0, src.Size))
		}
		if err == nil {
			l.NumRanks = l.t.NumRanks
			l.selectBlocks()
			err = l.readDefs()
		}
		if err != nil && !l.scanned && errors.Is(err, ErrCorrupt) {
			scan = true
			continue
		}
		if err != nil {
			return nil, &LogError{index, err}
		}
		return l, nil
	}
}

// usableTable is the table decision Walk and the per-rank walk share: the
// table the log ends with when it validates (ReadTable) and its entries
// keep the rule of a block, nil when they do not or there is none, so
// that the scan reads the log and names its breach, if it has one. An
// entry of a rank outside the header's count, or with definitions outside
// rank 0, breaks the rule; so does an entry with definitions after an
// entry with a timed record, the one clause of the rule no rank's reader
// sees, which the entries are held to before any worker starts. The
// reader of each block holds it to its entry's counts.
func usableTable(r io.ReaderAt, size int64) *Table {
	t, err := ReadTable(r, size)
	if err != nil {
		return nil // why the log has none is the scan's to find
	}
	timed := false
	for i := range t.Blocks {
		m := &t.Blocks[i]
		if checkRank(m.Rank, t.NumRanks) != nil || (m.Defs > 0 && (m.Rank != 0 || timed)) {
			return nil
		}
		timed = timed || m.Records > m.Defs
	}
	return t
}

// selectBlocks selects the entries l.q can touch and orders them by rank.
func (l *RankLog) selectBlocks() {
	l.sel = l.t.Select(l.q)
	slices.SortStableFunc(l.sel, func(a, b int) int { return int(l.t.Blocks[a].Rank) - int(l.t.Blocks[b].Rank) })
	l.ranks, l.starts = l.ranks[:0], l.starts[:0]
	for j, e := range l.sel {
		if rank := l.t.Blocks[e].Rank; j == 0 || rank != l.ranks[len(l.ranks)-1] {
			l.ranks, l.starts = append(l.ranks, rank), append(l.starts, j)
		}
	}
	l.starts = append(l.starts, len(l.sel))
}

// defsOnly selects a block's definitions and none of its timed records.
var defsOnly = Query{T0: math.Inf(1), T1: math.Inf(-1), Rank: -1, IncludeDefs: true}

// readDefs decodes the definitions of the blocks whose entries count one,
// in file order: a head of the log (usableTable). The cursor it reads them
// with is the first worker's.
func (l *RankLog) readDefs() error {
	c := l.cursor()
	for i := range l.t.Blocks {
		m := &l.t.Blocks[i]
		if m.Defs == 0 {
			continue
		}
		b, err := c.br.NextAt(c.buf[:0], defsOnly, m)
		if err != nil {
			c.release()
			return err
		}
		l.Defs = append(l.Defs, b.Records...)
	}
	l.spare = c
	return nil
}

// RankCursor reads one rank's selected blocks of a log at a time, in file
// order, through a reader and a block buffer of its own.
type RankCursor struct {
	l       *RankLog
	br      *BlockReader
	buf     *[MaxBlockRecords]Record
	entries []int // the rank's entries not yet read
}

// cursor returns the spare cursor, or a new one.
func (l *RankLog) cursor() *RankCursor {
	if c := l.spare; c != nil {
		l.spare = nil
		return c
	}
	br := readerAt(io.NewSectionReader(l.src.R, 0, l.src.Size), 0, l.NumRanks) // NextAt seeks
	return &RankCursor{l: l, br: br, buf: blockPool.Get().(*[MaxBlockRecords]Record)}
}

// release gives the cursor's buffers back to their pools.
func (c *RankCursor) release() {
	c.br.Release()
	blockPool.Put(c.buf)
}

// Open stands the cursor before rank's first selected block. A rank with
// none, or outside the log's header, has no block to read.
func (c *RankCursor) Open(rank int32) {
	c.entries = nil
	if j, ok := slices.BinarySearch(c.l.ranks, rank); ok {
		c.entries = c.l.sel[c.l.starts[j]:c.l.starts[j+1]]
	}
	c.br.forget()
}

// Next returns the rank's next selected block, cut to the walk's query
// without its definitions, or io.EOF after its last. The block's records
// are valid until the next call. A block that does not match its table
// entry marks the log's table as lying, so that the walk reads it again
// through its scan.
func (c *RankCursor) Next() (Block, error) {
	if len(c.entries) == 0 {
		return Block{}, io.EOF
	}
	b, err := c.br.NextAt(c.buf[:0], c.l.q, &c.l.t.Blocks[c.entries[0]])
	if err != nil {
		if !c.l.scanned && errors.Is(err, ErrCorrupt) {
			c.l.lied.Store(true)
		}
		return Block{}, &LogError{c.l.index, err}
	}
	c.entries = c.entries[1:]
	return b, nil
}
