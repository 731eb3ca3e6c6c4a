package clog2

import (
	"math"
	"strconv"
)

// SoloBase splits the etype space of a bare or cargo event: state s
// logs its start as etype 2s and its end as 2s+1, both below SoloBase;
// solo event e logs SoloBase+e. The split is a property of the file
// format, so every reader of it reads it here.
const SoloBase = 1 << 20

// Fold is the one reading of a merged CLOG-2 stream that the post-run
// tools share: which records count, which rank they belong to, and how
// a rank's state starts and ends pair up. A consumer feeds records to
// Add in file order and switches on the Step it returns; what it keeps
// per rank it keeps in a slice indexed by FoldRank.Index.
//
// The policy, in full:
//
//   - Definitions are absorbed whatever the window: a StateDef names its
//     start etype, end etype and state, an EventDef names a solo etype.
//     Definitions, constants, source locations and the block and log
//     markers are never counted.
//   - Every other record is counted when its timestamp is finite and
//     inside the inclusive window [T0, T1], and skipped whole otherwise:
//     a skipped record touches no count, no wall span and no stack. A
//     state that opened before T0 and ends inside the window is therefore
//     an orphan end, and one that opens inside and ends after T1
//     contributes nothing.
//   - A counted record adds one to its rank's Records and widens the
//     rank's [First, Last] span. Ranks exist by first appearance; the
//     header's rank count sizes nothing.
//   - A message half is StepMsg; an etype at or above SoloBase is
//     StepSolo. A time shift (and any record type this list does not
//     name) is StepShift: counted, and nothing else.
//   - An etype below SoloBase is a state start or end: by StateDef
//     first, and for an etype no StateDef names (a defs-less salvaged
//     fragment) by parity, 2s a start and 2s+1 an end of "state s".
//   - A start pushes onto its rank's stack (StepOpen). An end closes the
//     innermost open state of its rank, whichever state it names
//     (StepClose); the occurrence takes its ID and Name from the end
//     record and its Start from the popped entry. Dur is End-Start, Self
//     is Dur less the Dur of the states closed directly inside it, both
//     floored at zero.
//   - An end with nothing open is counted in Unpaired and otherwise
//     ignored (StepOrphan).
//   - States still open when the stream ends contribute nothing.
//
// The converter does not fold: it sorts each rank by time before
// pairing, carries cargo across the pair and reports an end that names
// the wrong state, and a stack that served both would branch on its
// caller.
type Fold struct {
	// Rank is the rank of the record Add last counted.
	Rank *FoldRank
	// Closed is the occurrence the last StepClose closed.
	Closed Occurrence
	// Unpaired counts the orphan ends seen so far.
	Unpaired int64

	t0, t1    float64
	startOf   map[int32]int32 // start etype -> state ID
	endOf     map[int32]int32 // end etype -> state ID
	stateName map[int32]string
	eventName map[int32]string
	byRank    map[int32]*FoldRank
	ranks     []*FoldRank
}

// Step says what Add made of a record.
type Step uint8

const (
	StepSkip   Step = iota // a definition or marker, or outside the window: not counted
	StepShift              // counted, nothing else
	StepMsg                // a message half
	StepSolo               // a solo event
	StepOpen               // a state start, pushed
	StepClose              // a state end; Fold.Closed is the occurrence
	StepOrphan             // a state end with nothing open
)

// Occurrence is one closed state occurrence.
type Occurrence struct {
	ID         int32
	Name       string
	Start, End float64
	Dur, Self  float64
}

// FoldRank is one rank's share of the fold.
type FoldRank struct {
	Rank int32
	// Index numbers the ranks densely in order of first appearance.
	Index int
	// Records counts the rank's counted records; First and Last are
	// the earliest and latest of their timestamps.
	Records     int64
	First, Last float64

	stack []openState
}

type openState struct{ start, childSec float64 }

// NewFold returns a fold over the inclusive window [t0, t1]; infinite
// bounds leave that side open.
func NewFold(t0, t1 float64) *Fold {
	return &Fold{
		t0:        t0,
		t1:        t1,
		startOf:   map[int32]int32{},
		endOf:     map[int32]int32{},
		stateName: map[int32]string{},
		eventName: map[int32]string{},
		byRank:    map[int32]*FoldRank{},
	}
}

// Window returns the bounds the fold was built over.
func (f *Fold) Window() (t0, t1 float64) { return f.t0, f.t1 }

// Ranks returns the ranks seen so far, in Index order.
func (f *Fold) Ranks() []*FoldRank { return f.ranks }

// EventName returns the name an EventDef gave a solo etype, "" if none.
func (f *Fold) EventName(etype int32) string { return f.eventName[etype] }

// Add folds one record in.
func (f *Fold) Add(rec *Record) Step {
	switch rec.Type {
	case RecStateDef:
		f.startOf[rec.Aux1] = rec.ID
		f.endOf[rec.Aux2] = rec.ID
		f.stateName[rec.ID] = rec.Name
		return StepSkip
	case RecEventDef:
		f.eventName[rec.ID] = rec.Name
		return StepSkip
	case RecConstDef, RecSrcLoc, RecEndBlock, RecEndLog:
		return StepSkip
	}
	t := rec.Time
	if math.IsNaN(t) || math.IsInf(t, 0) || t < f.t0 || t > f.t1 {
		return StepSkip
	}
	r := f.Rank
	if r == nil || r.Rank != rec.Rank {
		if r = f.byRank[rec.Rank]; r == nil {
			r = &FoldRank{Rank: rec.Rank, Index: len(f.ranks), First: t, Last: t}
			f.byRank[rec.Rank] = r
			f.ranks = append(f.ranks, r)
		}
		f.Rank = r
	}
	r.Records++
	if t < r.First {
		r.First = t
	}
	if t > r.Last {
		r.Last = t
	}

	switch rec.Type {
	case RecMsgEvt:
		return StepMsg
	case RecBareEvt, RecCargoEvt:
	default:
		return StepShift
	}
	if rec.ID >= SoloBase {
		return StepSolo
	}
	id, name, isEnd := f.stateEnd(rec.ID)
	if !isEnd {
		r.stack = append(r.stack, openState{start: t})
		return StepOpen
	}
	n := len(r.stack)
	if n == 0 {
		f.Unpaired++
		return StepOrphan
	}
	top := r.stack[n-1]
	r.stack = r.stack[:n-1]
	dur := t - top.start
	if dur < 0 {
		dur = 0
	}
	self := dur - top.childSec
	if self < 0 {
		self = 0
	}
	if n > 1 {
		r.stack[n-2].childSec += dur
	}
	f.Closed = Occurrence{ID: id, Name: name, Start: top.start, End: t, Dur: dur, Self: self}
	return StepClose
}

// stateEnd reports whether a state-space etype is an end, and of which
// state.
func (f *Fold) stateEnd(etype int32) (id int32, name string, ok bool) {
	if _, ok := f.startOf[etype]; ok {
		return 0, "", false
	}
	if id, ok := f.endOf[etype]; ok {
		return id, f.stateName[id], true
	}
	if etype%2 == 0 {
		return 0, "", false
	}
	return etype / 2, "state " + strconv.Itoa(int(etype/2)), true
}
