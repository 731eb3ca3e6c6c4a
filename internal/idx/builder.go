package idx

import (
	"math"

	"repro/internal/clog2"
)

// Builder accumulates an Index while blocks stream past — the shape the
// MPE Finish merge feeds: StartBlock before a block's records are
// written, AddRecords for each chunk, EndBlock after the end-block
// marker. It is built to ride the merge's zero-allocation path: Reset
// keeps every slice's capacity and clears (not reallocates) the lookup
// maps, so a pooled Builder adds no per-record allocations in steady
// state (the mpe alloc gates hold it to that).
type Builder struct {
	numRanks int
	total    int64
	blocks   []BlockMeta
	cur      BlockMeta
	inBlock  bool

	chanIdx  map[int32]int
	chans    []ChannelCount
	etypeIdx map[int32]int
	etypes   []EtypeCount
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
	if b.chanIdx == nil {
		b.chanIdx = make(map[int32]int)
		b.etypeIdx = make(map[int32]int)
	} else {
		clear(b.chanIdx)
		clear(b.etypeIdx)
	}
	b.chans = b.chans[:0]
	b.etypes = b.etypes[:0]
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
	switch r.Type {
	case clog2.RecMsgEvt:
		b.cur.Msgs++
		ch := r.Aux2
		if ch < b.cur.ChanMin {
			b.cur.ChanMin = ch
		}
		if ch > b.cur.ChanMax {
			b.cur.ChanMax = ch
		}
		j, ok := b.chanIdx[ch]
		if !ok {
			j = len(b.chans)
			b.chanIdx[ch] = j
			b.chans = append(b.chans, ChannelCount{Chan: ch})
		}
		cc := &b.chans[j]
		if r.Dir == clog2.DirSend {
			cc.Sends++
			cc.SendBytes += int64(r.Aux3)
		} else {
			cc.Recvs++
			cc.RecvBytes += int64(r.Aux3)
		}
	case clog2.RecBareEvt, clog2.RecCargoEvt:
		j, ok := b.etypeIdx[r.ID]
		if !ok {
			j = len(b.etypes)
			b.etypeIdx[r.ID] = j
			b.etypes = append(b.etypes, EtypeCount{Etype: r.ID})
		}
		b.etypes[j].Count++
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

// Index assembles the accumulated metadata. Channel and etype tables are
// sorted by id for a deterministic encoding; the generation fields are
// zero until WriteFileFor stamps them from the source file. The returned
// Index copies the Builder's slices, so the Builder may be Reset and
// reused while the Index lives on.
func (b *Builder) Index() *Index {
	ix := &Index{
		NumRanks:     b.numRanks,
		TotalRecords: b.total,
		Blocks:       append([]BlockMeta(nil), b.blocks...),
		Channels:     append([]ChannelCount(nil), b.chans...),
		Etypes:       append([]EtypeCount(nil), b.etypes...),
	}
	sortChannels(ix.Channels)
	sortEtypes(ix.Etypes)
	return ix
}
