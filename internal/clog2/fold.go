package clog2

import (
	"cmp"
	"maps"
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

// NewEtypes reads defs, a log's definitions in file order, as Define does
// one at a time.
func NewEtypes(defs []Record) *Etypes {
	e := &Etypes{}
	for i := range defs {
		e.Define(&defs[i])
	}
	return e
}

// StateName is the name a StateDef gave state id, else "state id".
// Definitions lead the log, so a state's name is the same at every close.
func (e *Etypes) StateName(id int32) string {
	if name, ok := e.stateName[id]; ok {
		return name
	}
	return "state " + strconv.Itoa(int(id))
}

// EventName is the name an EventDef gave a solo etype, "" if none.
func (e *Etypes) EventName(etype int32) string { return e.eventName[etype] }

// Stack is one rank's open states, innermost last: a start pushes, and an
// end closes the innermost open state whichever state it names.
type Stack struct{ open []Opened }

// Opened is one open state: the state its start named, when it started,
// and Ref, which the fold's caller chooses (Fold.SetRef: the converter keeps
// where its start record's cargo lies there; the fold ignores it).
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
// which takes its ID from the end. Dur is End-Start, Self is Dur less the
// Dur of the states closed directly inside it, both floored at zero. An
// end with nothing open is an orphan: ok is false and nothing changes. The
// caller tells a mismatched end by top.ID != id.
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

// Join moves o's halves into m, leaving o empty: o holds what a walk of one
// rank filed, m what the walks of other ranks did. A key's sends are its
// Src's and its receives its Dst's, so no queue is filled from two ranks
// and the queues join as they are, each in its rank's time order.
func (m *Messages) Join(o *Messages) {
	m.sends.join(&o.sends)
	m.recvs.join(&o.recvs)
}

func (q *queues) join(o *queues) {
	if q.byKey == nil {
		q.byKey = map[MsgKey]*[]MsgHalf{}
	}
	maps.Copy(q.byKey, o.byKey)
	*o = queues{}
}

// Match pairs message halves first in, first out per key, in time order:
// the i-th send of a key with its i-th receive. It walks the keys in
// (Src, Dst, Tag) order and hands visit each key's sends and receives in
// the order they were added: sends[i] and recvs[i] are a matched pair for
// every i below the shorter length, and what the longer side holds past it
// is unmatched. A key's sends are one rank's and its receives another's,
// so halves added in file order are in time order (Block). The slices stay
// valid, and in that order, after visit returns, until the next Add: the
// converter merges the keys' runs of sends into one time order after the
// walk, which is right only because each run arrives in time order.
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
		visit(k, m.sends.get(k), m.recvs.get(k))
	}
}

// Fold is the one reading of a rank's records that the post-run tools
// share: which records count and how the rank's state starts and ends pair
// up. A block holds one rank's records in time order (Block), so a rank
// folds on its own: a per-rank walk (EachRank) hands each rank's blocks to
// a Fold of its own, the rank's records in file order, and a consumer
// switches on the Step Add returns and merges its ranks in rank order
// after the walk. The profile, the verdict and the converter are its
// observers (DESIGN §4).
//
// The policy, in full:
//
//   - Definitions are the walk's: they lead the log (Block), and the walk
//     decodes them once, before any rank's first record, into the Etypes
//     every rank's Fold reads. Add counts no definition, constant or
//     marker (StepSkip).
//   - Every other record is counted. A window is the reader's to cut
//     (Query, NextIn): a record it drops touches no count, no wall span
//     and no stack, so a state that opened before the window and ends
//     inside it is an orphan end, and one that opens inside and ends
//     after it contributes nothing. The reader has held every stamp to be
//     finite and the rank's to be in time order (Block).
//   - A counted record adds one to Records and is the rank's Last; its
//     first is the rank's First.
//   - A message half is StepMsg. A time shift (and any record type this
//     list does not name) is StepShift: counted, and nothing else.
//   - A bare or cargo event is what Etypes.Classify makes of its etype:
//     StepSolo, or a state start or end.
//   - A start pushes onto the rank's Stack (StepOpen). An end closes the
//     innermost open state, whichever state it names (StepClose); the
//     occurrence takes its ID from the end record (its name is
//     Etypes.StateName's) and its Start from the popped entry (Popped).
//   - An end with nothing open is counted in Unpaired and otherwise
//     ignored (StepOrphan).
//   - States still open when the rank's records end contribute nothing;
//     they are Open.
type Fold struct {
	// Rank is the rank folded. Records counts its counted records; First
	// and Last are the first and the last of their timestamps.
	Rank        int32
	Records     int64
	First, Last float64
	// Closed is the occurrence the last StepClose closed, and Popped the
	// open state it popped: the state its start named (an end that names
	// another closes it all the same) and the Ref SetRef gave it. After a
	// StepOrphan, Closed holds the state the end names and its End alone.
	Closed Occurrence
	Popped Opened
	// Unpaired counts the orphan ends seen so far.
	Unpaired int64

	etypes *Etypes
	stack  Stack
}

// Step says what Add made of a record.
type Step uint8

const (
	StepSkip   Step = iota // a definition or marker: not counted
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
	Start, End float64
	Dur, Self  float64
}

// NewFold returns an empty fold of rank's records, which reads their
// etypes through e. Folds of the same log share e: nothing writes it once
// the walk has begun.
func NewFold(e *Etypes, rank int32) *Fold {
	return &Fold{Rank: rank, etypes: e}
}

// SetRef sets the Ref of the state the last StepOpen pushed.
func (f *Fold) SetRef(ref uint64) {
	open := f.stack.open
	open[len(open)-1].Ref = ref
}

// Open returns the rank's states still open, outermost first: once the
// rank's records have ended, those that never closed.
func (f *Fold) Open() []Opened { return f.stack.open }

// Add folds one of the rank's records in.
func (f *Fold) Add(rec *Record) Step {
	switch {
	case rec.Type.IsDef(), rec.Type == RecEndBlock, rec.Type == RecEndLog:
		return StepSkip
	}
	t := rec.Time
	if f.Records == 0 {
		f.First = t
	}
	f.Records++
	f.Last = t

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
		f.stack.Push(id, t, 0)
		return StepOpen
	default:
		top, occ, ok := f.stack.Close(id, t)
		if !ok {
			f.Unpaired++
			f.Closed = Occurrence{ID: id, End: t}
			return StepOrphan
		}
		f.Closed, f.Popped = occ, top
		return StepClose
	}
}
