// Package idx implements the CLOG-2 index sidecar: a compact ".idx" file
// written next to a raw log that records where every block lives
// (byte offsets) and what it contains (record/definition/message counts,
// a time fence of min/max timestamps, rank and channel fences): what
// Select reads and nothing else. Consumers use it to seek
// straight to the blocks a time/rank/channel query can touch instead of
// streaming the entire multi-gigabyte log — the raw-log analogue of the
// level-of-detail index SLOG-2 keeps on the render side.
//
// The sidecar is strictly an accelerator: every answer computed through
// it must be identical to the full-scan answer, and every consumer
// degrades to the full scan when the sidecar is absent, stale (the
// source file's size/mtime generation no longer matches, the same
// scheme internal/serve uses for its caches), or fails validation.
package idx

import (
	"errors"
	"math"

	"repro/internal/clog2"
)

// Magic begins every sidecar; the trailing digits are the format version.
const Magic = "CLOGIDX-02"

// Version is the encoded format version (also implied by Magic).
const Version = 2

// Degradation sentinels: why a sidecar was not used. Consumers treat all
// three the same way — fall back to the full scan — but report them
// distinctly (pilot-serve meta, pilot-index info).
var (
	// ErrNoIndex: no sidecar file exists next to the log.
	ErrNoIndex = errors.New("idx: no index sidecar")
	// ErrStale: the sidecar's recorded source size/mtime generation does
	// not match the log on disk — the log was rewritten after indexing.
	ErrStale = errors.New("idx: index sidecar is stale")
	// ErrCorrupt: the sidecar failed structural validation (bad magic,
	// version, CRC, or implausible geometry).
	ErrCorrupt = errors.New("idx: index sidecar failed validation")
)

// SidecarPath derives the sidecar name for a CLOG-2 path:
// "run.clog2" → "run.clog2.idx".
func SidecarPath(clogPath string) string { return clogPath + ".idx" }

// BlockMeta describes one block of the source log.
type BlockMeta struct {
	// Offset/Length bracket the block's bytes (header through end-block
	// marker) — the seek target for clog2.NewBlockReaderAt.
	Offset, Length int64
	// Rank is the block header's rank.
	Rank int32
	// Records counts all records in the block; Defs the definition
	// records among them (StateDef/EventDef/ConstDef/SrcLoc — the records
	// a windowed consumer must always process regardless of its time
	// window); Msgs the MsgEvt records.
	Records, Defs, Msgs int32
	// TMin/TMax fence the timestamps of the block's non-definition
	// records (events, messages, timeshifts — everything a time window
	// filters). Valid only when Records > Defs; else TMin > TMax.
	TMin, TMax float64
	// RankMin/RankMax fence the Rank field of non-definition records
	// (normally all equal to Rank, but salvaged logs may interleave).
	RankMin, RankMax int32
	// ChanMin/ChanMax fence the channel (tag) of MsgEvt records.
	// Valid only when Msgs > 0.
	ChanMin, ChanMax int32
}

// Index is a decoded sidecar.
type Index struct {
	// NumRanks mirrors the source file header.
	NumRanks int
	// SourceSize/SourceModNanos are the generation stamp of the log the
	// index was built for; Load rejects the sidecar when they no longer
	// match the file on disk.
	SourceSize, SourceModNanos int64
	// TotalRecords sums Blocks[i].Records.
	TotalRecords int64
	Blocks       []BlockMeta
}

// Query selects blocks. The zero Query matches nothing useful — start
// from MatchAll and narrow.
type Query struct {
	// T0/T1 bound the time window (inclusive); non-definition records
	// with Time outside [T0, T1] are out of scope.
	T0, T1 float64
	// Rank restricts to records of one rank; negative means any.
	Rank int32
	// Chan restricts to messages on one channel; negative means any.
	Chan int32
	// IncludeDefs also selects every block containing definition
	// records, whatever its fences say — windowed profiling needs the
	// defs to classify states no matter where the window lands.
	IncludeDefs bool
}

// MatchAll returns the query that selects every block.
func MatchAll() Query {
	return Query{T0: math.Inf(-1), T1: math.Inf(1), Rank: -1, Chan: -1}
}

// Select returns the indices (in file order) of the blocks a scan for q
// must visit: blocks whose fences intersect the query, plus — with
// q.IncludeDefs — every block holding definition records. The selection
// is conservative: a selected block may hold no matching record, but no
// unselected block can.
func (ix *Index) Select(q Query) []int {
	sel := make([]int, 0, len(ix.Blocks))
	for i := range ix.Blocks {
		if ix.blockMatches(&ix.Blocks[i], q) {
			sel = append(sel, i)
		}
	}
	return sel
}

func (ix *Index) blockMatches(b *BlockMeta, q Query) bool {
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
	if q.Rank >= 0 && (q.Rank < b.RankMin || q.Rank > b.RankMax) {
		return false
	}
	if q.Chan >= 0 {
		if b.Msgs == 0 || q.Chan < b.ChanMin || q.Chan > b.ChanMax {
			return false
		}
	}
	return true
}

// Matches reports whether one decoded record is in scope for q — the
// record-level filter every consumer applies inside visited blocks, so
// the indexed and full-scan paths agree answer-for-answer. Definition
// records are metadata: they skip the time window (their timestamps mark
// when they were defined, not when anything happened) but still honour
// the rank and channel filters. A consumer that wants definitions must
// therefore select blocks with IncludeDefs set; Select's fences only
// cover non-definition records.
func (q Query) Matches(r *clog2.Record) bool {
	if !isDef(r.Type) && (r.Time < q.T0 || r.Time > q.T1) {
		return false
	}
	if q.Rank >= 0 && r.Rank != q.Rank {
		return false
	}
	if q.Chan >= 0 && (r.Type != clog2.RecMsgEvt || r.Aux2 != q.Chan) {
		return false
	}
	return true
}

// isDef reports whether a record type is a definition — always processed
// by windowed consumers, excluded from the time fences.
func isDef(t clog2.RecType) bool {
	switch t {
	case clog2.RecStateDef, clog2.RecEventDef, clog2.RecConstDef, clog2.RecSrcLoc:
		return true
	}
	return false
}
