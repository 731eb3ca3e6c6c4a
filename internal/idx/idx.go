// Package idx answers time, rank and channel queries over a CLOG-2 log
// through the block table the log carries at its end (clog2.Table): it
// seeks straight to the blocks a query can touch instead of streaming the
// whole log — the raw-log analogue of the level-of-detail index SLOG-2
// keeps on the render side.
//
// The table is strictly an accelerator: every answer computed through it
// must be identical to the full-scan answer, and Walk degrades to the full
// scan when a log has no table (an older writer, a cut), when the table
// fails validation, or when it lies about a block it selected.
package idx

import (
	"math"

	"repro/internal/clog2"
)

// Index is a log's validated block table, as Load and Walk read it.
type Index clog2.Table

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
		if blockMatches(&ix.Blocks[i], q) {
			sel = append(sel, i)
		}
	}
	return sel
}

func blockMatches(b *clog2.BlockMeta, q Query) bool {
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
	if !r.Type.IsDef() && (r.Time < q.T0 || r.Time > q.T1) {
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
