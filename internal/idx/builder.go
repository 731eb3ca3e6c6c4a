package idx

import (
	"math"

	"repro/internal/clog2"
)

// Builder accumulates an Index while blocks stream past — the shape the
// MPE Finish merge feeds: StartBlock before a block's records are
// written, AddRecords for each chunk, EndBlock after the end-block
// marker. It is built to ride the merge's zero-allocation path: Reset
// keeps the block slice's capacity, so a pooled Builder adds no
// per-record allocations in steady state (the mpe alloc gates hold it to
// that).
type Builder struct {
	numRanks int
	total    int64
	blocks   []BlockMeta
	cur      BlockMeta
	inBlock  bool
}

// NewBuilder returns a Builder for a log with numRanks ranks.
func NewBuilder(numRanks int) *Builder {
	b := &Builder{}
	b.Reset(numRanks)
	return b
}

// Reset clears the Builder for a new log, keeping accumulated capacity.
func (b *Builder) Reset(numRanks int) {
	b.numRanks = numRanks
	b.total = 0
	b.blocks = b.blocks[:0]
	b.cur = BlockMeta{}
	b.inBlock = false
}

// StartBlock opens a block beginning at byte offset for rank.
func (b *Builder) StartBlock(rank int32, offset int64) {
	b.cur = BlockMeta{
		Offset:  offset,
		Rank:    rank,
		TMin:    math.Inf(1),
		TMax:    math.Inf(-1),
		RankMin: math.MaxInt32,
		RankMax: math.MinInt32,
		ChanMin: math.MaxInt32,
		ChanMax: math.MinInt32,
	}
	b.inBlock = true
}

// AddRecords accounts one chunk of the open block's records.
func (b *Builder) AddRecords(recs []clog2.Record) {
	for i := range recs {
		b.addRecord(&recs[i])
	}
}

// AddRun accounts one run that br.Each handed out — the rebuild's path,
// and the merge's for the blocks it splices. A block's first run opens it
// and its last closes it, where br reports its bounds, moved by shift
// (the merge reads a rank's blocks at one offset and writes them at
// another).
func (b *Builder) AddRun(br *clog2.BlockReader, run clog2.Block, shift int64) {
	start, end := br.BlockBounds()
	if !b.inBlock {
		b.StartBlock(run.Rank, start+shift)
	}
	b.AddRecords(run.Records)
	if end != 0 {
		b.EndBlock(end + shift)
	}
}

func (b *Builder) addRecord(r *clog2.Record) {
	b.total++
	b.cur.Records++
	if isDef(r.Type) {
		b.cur.Defs++
		return
	}
	if r.Time < b.cur.TMin {
		b.cur.TMin = r.Time
	}
	if r.Time > b.cur.TMax {
		b.cur.TMax = r.Time
	}
	if r.Rank < b.cur.RankMin {
		b.cur.RankMin = r.Rank
	}
	if r.Rank > b.cur.RankMax {
		b.cur.RankMax = r.Rank
	}
	if r.Type == clog2.RecMsgEvt {
		b.cur.Msgs++
		ch := r.Aux2
		if ch < b.cur.ChanMin {
			b.cur.ChanMin = ch
		}
		if ch > b.cur.ChanMax {
			b.cur.ChanMax = ch
		}
	}
}

// EndBlock closes the open block at byte offset end (one past its
// end-block marker).
func (b *Builder) EndBlock(end int64) {
	if !b.inBlock {
		return
	}
	b.cur.Length = end - b.cur.Offset
	b.blocks = append(b.blocks, b.cur)
	b.inBlock = false
}

// Index assembles the accumulated metadata. The generation fields are
// zero until WriteFileFor stamps them from the source file. The returned
// Index copies the Builder's blocks, so the Builder may be Reset and
// reused while the Index lives on.
func (b *Builder) Index() *Index {
	return &Index{
		NumRanks:     b.numRanks,
		TotalRecords: b.total,
		Blocks:       append([]BlockMeta(nil), b.blocks...),
	}
}
