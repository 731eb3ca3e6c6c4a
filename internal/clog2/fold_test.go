package clog2

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
)

func foldDef(id, start, end int32, name string) Record {
	return Record{Type: RecStateDef, ID: id, Aux1: start, Aux2: end, Name: name}
}

func foldEvt(rank int32, t float64, etype int32) Record {
	return Record{Type: RecBareEvt, Rank: rank, Time: t, ID: etype}
}

// foldResult is everything a fold reports, flattened for comparison.
type foldResult struct {
	steps    []Step
	closed   []named
	unpaired int64
	// ranks in Index order: rank id, records, first, last.
	ranks [][4]float64
}

// named is an Occurrence with the name the fold gives its state.
type named struct {
	ID         int32
	Name       string
	Start, End float64
	Dur, Self  float64
}

// runFold folds recs as a per-rank walk does: the definitions they lead
// with are the Etypes every rank reads, and each rank's records go to a
// Fold of its own, in order. Ranks are listed in order of first appearance.
func runFold(recs []Record) foldResult {
	n := 0
	for n < len(recs) && recs[n].Type.IsDef() {
		n++
	}
	e := NewEtypes(recs[:n])
	var res foldResult
	var folds []*Fold
	byRank := map[int32]*Fold{}
	for i := range recs[:n] {
		res.steps = append(res.steps, NewFold(e, 0).Add(&recs[i]))
	}
	for i := n; i < len(recs); i++ {
		f := byRank[recs[i].Rank]
		if f == nil {
			f = NewFold(e, recs[i].Rank)
			byRank[f.Rank] = f
			folds = append(folds, f)
		}
		step := f.Add(&recs[i])
		res.steps = append(res.steps, step)
		if step == StepClose {
			o := f.Closed
			res.closed = append(res.closed, named{o.ID, e.StateName(o.ID), o.Start, o.End, o.Dur, o.Self})
		}
	}
	for _, f := range folds {
		res.unpaired += f.Unpaired
		if f.Records > 0 {
			res.ranks = append(res.ranks, [4]float64{float64(f.Rank), float64(f.Records), f.First, f.Last})
		}
	}
	return res
}

func TestFold(t *testing.T) {
	inf := math.Inf(1)
	defs := []Record{foldDef(1, 2, 3, "Outer"), foldDef(2, 4, 5, "Inner")}
	with := func(recs ...Record) []Record { return append(append([]Record(nil), defs...), recs...) }
	skip2 := []Step{StepSkip, StepSkip}

	for _, tc := range []struct {
		name string
		recs []Record
		// window, when set, is a window the reader cuts recs to, as one
		// block of rank 0, before the fold is handed what it keeps.
		window []float64
		want   foldResult
		// refused, when set, is the reader's refusal of recs as one block
		// of rank 0: records the fold is never handed.
		refused string
	}{
		{
			name: "nesting with self time",
			recs: with(foldEvt(0, 1, 2), foldEvt(0, 2, 4), foldEvt(0, 3, 5), foldEvt(0, 4, 4), foldEvt(0, 4.5, 5), foldEvt(0, 6, 3)),
			want: foldResult{
				steps: append(skip2, StepOpen, StepOpen, StepClose, StepOpen, StepClose, StepClose),
				closed: []named{
					{ID: 2, Name: "Inner", Start: 2, End: 3, Dur: 1, Self: 1},
					{ID: 2, Name: "Inner", Start: 4, End: 4.5, Dur: 0.5, Self: 0.5},
					{ID: 1, Name: "Outer", Start: 1, End: 6, Dur: 5, Self: 3.5},
				},
				ranks: [][4]float64{{0, 6, 1, 6}},
			},
		},
		{
			// The end names Outer while Inner is innermost: Inner's entry is
			// popped, the occurrence is attributed to the state the end names.
			name: "end naming another state than the innermost open one",
			recs: with(foldEvt(0, 1, 2), foldEvt(0, 2, 4), foldEvt(0, 5, 3), foldEvt(0, 7, 5)),
			want: foldResult{
				steps: append(skip2, StepOpen, StepOpen, StepClose, StepClose),
				closed: []named{
					{ID: 1, Name: "Outer", Start: 2, End: 5, Dur: 3, Self: 3},
					{ID: 2, Name: "Inner", Start: 1, End: 7, Dur: 6, Self: 3},
				},
				ranks: [][4]float64{{0, 4, 1, 7}},
			},
		},
		{
			name: "orphan end, and a state left open",
			recs: with(foldEvt(0, 1, 3), foldEvt(0, 2, 2)),
			want: foldResult{
				steps:    append(skip2, StepOrphan, StepOpen),
				unpaired: 1,
				ranks:    [][4]float64{{0, 2, 1, 2}},
			},
		},
		{
			name: "defs-less stream pairs by parity",
			recs: []Record{foldEvt(0, 1, 14), foldEvt(0, 3, 15), foldEvt(0, 4, SoloBase), foldEvt(0, 5, SoloBase-1)},
			want: foldResult{
				steps:    []Step{StepOpen, StepClose, StepSolo, StepOrphan},
				closed:   []named{{ID: 7, Name: "state 7", Start: 1, End: 3, Dur: 2, Self: 2}},
				unpaired: 1,
				ranks:    [][4]float64{{0, 4, 1, 5}},
			},
		},
		{
			// A definition beats parity both ways: 7 is odd but defined a
			// start, 8 even but defined an end.
			name: "StateDef before parity",
			recs: []Record{foldDef(9, 7, 8, "Odd"), foldEvt(0, 1, 7), foldEvt(0, 2, 8)},
			want: foldResult{
				steps:  []Step{StepSkip, StepOpen, StepClose},
				closed: []named{{ID: 9, Name: "Odd", Start: 1, End: 2, Dur: 1, Self: 1}},
				ranks:  [][4]float64{{0, 2, 1, 2}},
			},
		},
		{
			// The reader cuts the window: both edges are inside; the start
			// before T0 is never handed over, so its end is an orphan; the
			// definitions sit outside the window (time 0), and still apply.
			name:   "window edges inclusive, definitions applied whatever the window",
			window: []float64{2, 4},
			recs: []Record{
				foldDef(1, 2, 3, "Outer"), foldDef(2, 4, 5, "Inner"),
				foldEvt(0, 1, 2), foldEvt(0, 2, 4),
				foldEvt(0, 4, 5), foldEvt(0, 4, 3), foldEvt(0, math.Nextafter(4, 5), 2),
			},
			want: foldResult{
				steps:    []Step{StepSkip, StepSkip, StepOpen, StepClose, StepOrphan},
				closed:   []named{{ID: 2, Name: "Inner", Start: 2, End: 4, Dur: 2, Self: 2}},
				unpaired: 1,
				ranks:    [][4]float64{{0, 3, 2, 4}},
			},
		},
		{
			// A message half is counted and spans the rank; so is a time
			// shift; constants and markers are not.
			name: "what counts",
			recs: []Record{
				{Type: RecConstDef, Rank: 1, Time: 100},
				{Type: RecEventDef, ID: SoloBase + 1, Name: "Mark"},
				{Type: RecMsgEvt, Rank: 1, Time: 3, Dir: DirSend},
				{Type: RecTimeShift, Rank: 1, Time: 9, Shift: 0.5},
				{Type: RecEndBlock}, {Type: RecEndLog},
			},
			want: foldResult{
				steps: []Step{StepSkip, StepSkip, StepMsg, StepShift, StepSkip, StepSkip},
				ranks: [][4]float64{{1, 2, 3, 9}},
			},
		},
		{
			// Non-finite timestamps used to be skipped whole by the fold.
			// They break the rule of a block (Block), so no reader hands
			// them over: the fold tests no stamp.
			name: "non-finite times",
			recs: with(foldEvt(0, 1, 2), foldEvt(0, inf, 3), foldEvt(0, math.NaN(), 3), foldEvt(0, -inf, 2),
				Record{Type: RecMsgEvt, Time: math.NaN()}, foldEvt(0, 2, 3)),
			refused: "clog2: a BareEvt record of rank 0 stamped +Inf",
		},
		{
			// Ranks index by first appearance, whatever their ids; a rank id
			// far beyond any header's count sizes nothing.
			name: "ranks first seen out of numeric order",
			recs: with(foldEvt(5, 1, 2), foldEvt(1<<30, 2, 2), foldEvt(-4, 3, 2), foldEvt(5, 4, 3), foldEvt(0, 5, SoloBase+7)),
			want: foldResult{
				steps:  append(skip2, StepOpen, StepOpen, StepOpen, StepClose, StepSolo),
				closed: []named{{ID: 1, Name: "Outer", Start: 1, End: 4, Dur: 3, Self: 3}},
				ranks:  [][4]float64{{5, 2, 1, 4}, {1 << 30, 1, 2, 2}, {-4, 1, 3, 3}, {0, 1, 5, 5}},
			},
		},
		{
			// An end before its start in time, which no reader hands over
			// either: the fold pairs what it is handed, Dur and Self floor
			// at 0, and the rank spans its first stamp to its last.
			name: "negative duration floors at zero",
			recs: with(foldEvt(0, 5, 2), foldEvt(0, 3, 3)),
			want: foldResult{
				steps:  append(skip2, StepOpen, StepClose),
				closed: []named{{ID: 1, Name: "Outer", Start: 5, End: 3}},
				ranks:  [][4]float64{{0, 2, 5, 3}},
			},
			refused: "clog2: a BareEvt record of rank 0 stamped 3, before its rank's 5",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.refused != "" {
				log := AppendBlockHeader(AppendHeader(nil, 1), 0, len(tc.recs))
				for i := range tc.recs {
					log, _ = AppendRecord(log, &tc.recs[i])
				}
				if _, _, err := readBlocks(bytes.NewReader(append(log, byte(RecEndBlock), byte(RecEndLog)))); err == nil || err.Error() != tc.refused {
					t.Errorf("the reader gives %v, want %s", err, tc.refused)
				}
				if tc.want.steps == nil {
					return
				}
			}
			recs := tc.recs
			if tc.window != nil {
				log := AppendBlockHeader(AppendHeader(nil, 1), 0, len(recs))
				for i := range recs {
					log, _ = AppendRecord(log, &recs[i])
				}
				br, err := NewBlockReader(bytes.NewReader(append(log, byte(RecEndBlock), byte(RecEndLog))))
				if err != nil {
					t.Fatal(err)
				}
				b, _, err := br.NextIn(nil, Query{T0: tc.window[0], T1: tc.window[1], Rank: -1, IncludeDefs: true})
				if err != nil {
					t.Fatal(err)
				}
				recs = b.Records
			}
			got := runFold(recs)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("fold\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

func TestFoldNamesSoloEvents(t *testing.T) {
	e := NewEtypes([]Record{{Type: RecEventDef, ID: SoloBase + 1, Name: "FaultInjected"}})
	if got := e.EventName(SoloBase + 1); got != "FaultInjected" {
		t.Fatalf("EventName = %q", got)
	}
	if got := e.EventName(SoloBase + 2); got != "" {
		t.Fatalf("EventName of an undefined etype = %q", got)
	}
}

// Each visits every block in file order through one buffer, stops at the
// callback's error and passes a decode error on.
func TestBlockReaderEach(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < 3; i++ {
		if err := w.WriteBlock(i%2, []Record{foldEvt(i%2, float64(i), 2), foldEvt(i%2, float64(i)+0.5, 3)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:w.Table().LogSize()]

	open := func(data []byte) *BlockReader {
		br, err := NewBlockReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return br
	}
	var times []float64
	var first *Record
	err = open(data).Each(func(b Block) error {
		if first == nil {
			first = &b.Records[0]
		} else if first != &b.Records[0] {
			t.Error("Each did not reuse its record buffer")
		}
		times = append(times, b.Records[0].Time)
		return nil
	})
	if err != nil || !reflect.DeepEqual(times, []float64{0, 1, 2}) {
		t.Fatalf("Each visited blocks starting at %v, err %v", times, err)
	}

	stop := errors.New("stop")
	n := 0
	if err := open(data).Each(func(Block) error { n++; return stop }); err != stop || n != 1 {
		t.Fatalf("Each returned %v after %d block(s); want the callback's error after 1", err, n)
	}
	n = 0
	if err := open(data[:len(data)-8]).Each(func(Block) error { n++; return nil }); err == nil || n != 2 {
		t.Fatalf("Each over a torn file returned %v after %d block(s); want an error after 2", err, n)
	}
}
