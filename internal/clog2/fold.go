package clog2

import (
	"cmp"
	"math"
	"slices"
	"strconv"
)

// SoloBase splits the etype space of a bare or cargo event: state s
// logs its start as etype 2s and its end as 2s+1, both below SoloBase;
// solo event e logs SoloBase+e. The split is a property of the file
// format, so every reader of it reads it here.
const SoloBase = 1 << 20

// EtypeKind says what a bare or cargo event marks.
type EtypeKind uint8

const (
	EtypeStart EtypeKind = iota + 1 // a state start
	EtypeEnd                        // a state end
	EtypeSolo                       // a solo event
)

// Etypes is the one reading of a bare or cargo event's etype: an etype a
// StateDef names is that state's start or end; any other etype below
// SoloBase is, by parity, 2s a start and 2s+1 an end of state s (a
// defs-less salvaged fragment), and one at or above SoloBase a solo
// event. The zero value reads every etype by parity.
type Etypes struct {
	marks     map[int32]mark // etype -> what a StateDef made it
	stateName map[int32]string
	eventName map[int32]string
}

type mark struct {
	kind  EtypeKind
	state int32
}

// Define absorbs rec when it is a StateDef or an EventDef, and reports
// whether it was.
func (e *Etypes) Define(rec *Record) bool {
	switch rec.Type {
	case RecStateDef:
		if e.marks == nil {
			e.marks, e.stateName = map[int32]mark{}, map[int32]string{}
		}
		e.marks[rec.Aux2] = mark{EtypeEnd, rec.ID}
		e.marks[rec.Aux1] = mark{EtypeStart, rec.ID}
		e.stateName[rec.ID] = rec.Name
	case RecEventDef:
		if e.eventName == nil {
			e.eventName = map[int32]string{}
		}
		e.eventName[rec.ID] = rec.Name
	default:
		return false
	}
	return true
}

// Classify says what an event of this etype marks and, for a start or an
// end, of which state; a solo event's id is its etype.
func (e *Etypes) Classify(etype int32) (kind EtypeKind, id int32) {
	if m, ok := e.marks[etype]; ok {
		return m.kind, m.state
	}
	switch {
	case etype >= SoloBase:
		return EtypeSolo, etype
	case etype%2 == 0:
		return EtypeStart, etype / 2
	}
	return EtypeEnd, etype / 2
}

// nameOf is the name a StateDef gave state id, else "state id".
func (e *Etypes) nameOf(id int32) string {
	if name, ok := e.stateName[id]; ok {
		return name
	}
	return "state " + strconv.Itoa(int(id))
}

// Stack is one rank's open states, innermost last: a start pushes, and an
// end closes the innermost open state whichever state it names.
type Stack struct{ open []Opened }

// Opened is one open state: the state its start named, when it started,
// and Ref, which the caller chooses (the converter keeps where its start
// record's cargo lies there; the fold ignores it).
type Opened struct {
	ID       int32
	Start    float64
	Ref      uint64
	childSec float64
}

// Push opens state id at t.
func (s *Stack) Push(id int32, t float64, ref uint64) {
	s.open = append(s.open, Opened{ID: id, Start: t, Ref: ref})
}

// Close pairs an end of state id at t with the innermost open state: it
// pops that state and returns it with the occurrence the pair makes,
// which takes its ID from the end (the caller adds the Name). Dur is
// End-Start, Self is Dur less the Dur of the states closed directly
// inside it, both floored at zero. An end with nothing open is an orphan:
// ok is false and nothing changes. The caller tells a mismatched end by
// top.ID != id.
func (s *Stack) Close(id int32, t float64) (top Opened, occ Occurrence, ok bool) {
	n := len(s.open)
	if n == 0 {
		return top, occ, false
	}
	top = s.open[n-1]
	s.open = s.open[:n-1]
	dur := max(t-top.Start, 0)
	if n > 1 {
		s.open[n-2].childSec += dur
	}
	return top, Occurrence{ID: id, Start: top.Start, End: t, Dur: dur, Self: max(dur-top.childSec, 0)}, true
}

// Open returns the states still open, outermost first.
func (s *Stack) Open() []Opened { return s.open }

// MsgKey is one message queue: MPE pairs a send with a receive of the
// same source, destination and tag ("MPE_Log_send and MPE_Log_receive
// should be called in pairs with matching tag number and length of
// data").
type MsgKey struct{ Src, Dst, Tag int32 }

// MsgHalf is a message's send or receive: when, and the size it logged.
type MsgHalf struct {
	Time float64
	Size int32
}

// Messages holds message halves by key until Match pairs them.
type Messages struct{ sends, recvs queues }

// queues is one direction's halves by key. last is the queue Add filed a
// half into most recently, under lastKey: a rank's halves run to a few
// keys, so most Adds find their queue without a map lookup.
type queues struct {
	byKey   map[MsgKey]*[]MsgHalf
	lastKey MsgKey
	last    *[]MsgHalf
}

// Add files a half that rank logged with peer: a send under (rank, peer,
// tag), a receive under (peer, rank, tag).
func (m *Messages) Add(rank, peer, tag int32, dir uint8, h MsgHalf) {
	if dir == DirSend {
		m.sends.add(MsgKey{rank, peer, tag}, h)
	} else {
		m.recvs.add(MsgKey{peer, rank, tag}, h)
	}
}

func (q *queues) add(k MsgKey, h MsgHalf) {
	hs := q.last
	if hs == nil || k != q.lastKey {
		if hs = q.byKey[k]; hs == nil {
			if q.byKey == nil {
				q.byKey = map[MsgKey]*[]MsgHalf{}
			}
			hs = new([]MsgHalf)
			q.byKey[k] = hs
		}
		q.lastKey, q.last = k, hs
	}
	if len(*hs) == cap(*hs) {
		// Double, where append would grow a long queue by a quarter and
		// allocate five times its final size on the way.
		grown := make([]MsgHalf, len(*hs), 2*len(*hs)+16)
		copy(grown, *hs)
		*hs = grown
	}
	*hs = append(*hs, h)
}

// get returns the halves filed under k, nil if none.
func (q *queues) get(k MsgKey) []MsgHalf {
	if hs := q.byKey[k]; hs != nil {
		return *hs
	}
	return nil
}

// Match pairs message halves first in, first out per key, in time order:
// the i-th send of a key with its i-th receive. It walks the keys in
// (Src, Dst, Tag) order and hands visit each key's sends and receives in
// time order: sends[i] and recvs[i] are a matched pair for every i below
// the shorter length, and what the longer side holds past it is
// unmatched. A key's halves are sorted, stably, only when they were added
// out of time order. The slices stay valid, and in that order, after
// visit returns, until the next Add: the converter merges the keys' runs
// of sends into one time order after the walk, which is right only
// because each run arrives sorted.
func (m *Messages) Match(visit func(k MsgKey, sends, recvs []MsgHalf)) {
	keys := make([]MsgKey, 0, len(m.sends.byKey)+len(m.recvs.byKey))
	for k := range m.sends.byKey {
		keys = append(keys, k)
	}
	for k := range m.recvs.byKey {
		if _, ok := m.sends.byKey[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(a, b MsgKey) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Tag, b.Tag))
	})
	for _, k := range keys {
		sends, recvs := m.sends.get(k), m.recvs.get(k)
		sortByTime(sends)
		sortByTime(recvs)
		visit(k, sends, recvs)
	}
}

// sortByTime sorts hs by time, stably, unless it already is: the one
// pass a log in time order costs.
func sortByTime(hs []MsgHalf) {
	for i := 1; i < len(hs); i++ {
		if cmp.Less(hs[i].Time, hs[i-1].Time) {
			slices.SortStableFunc(hs, func(a, b MsgHalf) int { return cmp.Compare(a.Time, b.Time) })
			return
		}
	}
}

// Fold is the one reading of a merged CLOG-2 stream that the post-run
// tools share: which records count, which rank they belong to, and how
// a rank's state starts and ends pair up. A consumer feeds records to
// Add in file order and switches on the Step it returns; what it keeps
// per rank it keeps in a slice indexed by FoldRank.Index. The converter
// reads a log by the same Etypes, Stack and Messages (DESIGN §4).
//
// The policy, in full:
//
//   - Definitions are absorbed whatever the window (Etypes.Define).
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
//   - A message half is StepMsg. A time shift (and any record type this
//     list does not name) is StepShift: counted, and nothing else.
//   - A bare or cargo event is what Etypes.Classify makes of its etype:
//     StepSolo, or a state start or end.
//   - A start pushes onto its rank's Stack (StepOpen). An end closes the
//     innermost open state of its rank, whichever state it names
//     (StepClose); the occurrence takes its ID and Name from the end
//     record and its Start from the popped entry.
//   - An end with nothing open is counted in Unpaired and otherwise
//     ignored (StepOrphan).
//   - States still open when the stream ends contribute nothing.
type Fold struct {
	// Rank is the rank of the record Add last counted.
	Rank *FoldRank
	// Closed is the occurrence the last StepClose closed.
	Closed Occurrence
	// Unpaired counts the orphan ends seen so far.
	Unpaired int64

	t0, t1 float64
	etypes Etypes
	byRank map[int32]*FoldRank
	ranks  []*FoldRank
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

	stack Stack
}

// NewFold returns a fold over the inclusive window [t0, t1]; infinite
// bounds leave that side open.
func NewFold(t0, t1 float64) *Fold {
	return &Fold{t0: t0, t1: t1, byRank: map[int32]*FoldRank{}}
}

// Window returns the bounds the fold was built over.
func (f *Fold) Window() (t0, t1 float64) { return f.t0, f.t1 }

// Ranks returns the ranks seen so far, in Index order.
func (f *Fold) Ranks() []*FoldRank { return f.ranks }

// EventName returns the name an EventDef gave a solo etype, "" if none.
func (f *Fold) EventName(etype int32) string { return f.etypes.eventName[etype] }

// Add folds one record in.
func (f *Fold) Add(rec *Record) Step {
	if f.etypes.Define(rec) {
		return StepSkip
	}
	switch rec.Type {
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
	switch kind, id := f.etypes.Classify(rec.ID); kind {
	case EtypeSolo:
		return StepSolo
	case EtypeStart:
		r.stack.Push(id, t, 0)
		return StepOpen
	default:
		_, occ, ok := r.stack.Close(id, t)
		if !ok {
			f.Unpaired++
			return StepOrphan
		}
		occ.Name = f.etypes.nameOf(id)
		f.Closed = occ
		return StepClose
	}
}
