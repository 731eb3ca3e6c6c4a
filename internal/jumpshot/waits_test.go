package jumpshot

import (
	"math"
	"strings"
	"testing"

	"repro/internal/clog2"
	"repro/internal/slog2"
)

// waitLog: rank 1 blocks in two reads; one resolved by rank 0 (arrival at
// 2.8 inside read [2,3]), the other by rank 2 (arrival 5.5 inside [5,6]).
func waitLog(t *testing.T) *slog2.File {
	t.Helper()
	cf := &clog2.File{NumRanks: 3}
	defs := []clog2.Record{
		{Type: clog2.RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Color: "red", Name: "PI_Read"},
	}
	r1 := []clog2.Record{
		{Type: clog2.RecCargoEvt, Time: 2, Rank: 1, ID: 2},
		{Type: clog2.RecMsgEvt, Time: 2.8, Rank: 1, Dir: clog2.DirRecv, Aux1: 0, Aux2: 1, Aux3: 8},
		{Type: clog2.RecCargoEvt, Time: 3, Rank: 1, ID: 3},
		{Type: clog2.RecCargoEvt, Time: 5, Rank: 1, ID: 2},
		{Type: clog2.RecMsgEvt, Time: 5.5, Rank: 1, Dir: clog2.DirRecv, Aux1: 2, Aux2: 2, Aux3: 8},
		{Type: clog2.RecCargoEvt, Time: 6, Rank: 1, ID: 3},
	}
	r0 := []clog2.Record{
		{Type: clog2.RecMsgEvt, Time: 2.1, Rank: 0, Dir: clog2.DirSend, Aux1: 1, Aux2: 1, Aux3: 8},
	}
	r2 := []clog2.Record{
		{Type: clog2.RecMsgEvt, Time: 5.1, Rank: 2, Dir: clog2.DirSend, Aux1: 1, Aux2: 2, Aux3: 8},
	}
	cf.Blocks = []clog2.Block{
		{Rank: 0, Records: append(defs, r0...)},
		{Rank: 1, Records: r1},
		{Rank: 2, Records: r2},
	}
	sf, rep, err := slog2.Convert(cf, slog2.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Arrows != 2 || rep.States != 2 {
		t.Fatalf("fixture: %+v", rep)
	}
	return sf
}

func TestWaitMatrixAttribution(t *testing.T) {
	f := waitLog(t)
	edges := WaitMatrix(f, f.Start, f.End)
	// Both edges tie at 1 s; the tie-break puts the lower sender first.
	if len(edges) != 2 || edges[0].Sender != 0 || edges[1].Sender != 2 {
		t.Fatalf("edges %+v", edges)
	}
	bySender := map[int]WaitEdge{}
	for _, e := range edges {
		if e.Waiter != 1 {
			t.Fatalf("unexpected waiter %d", e.Waiter)
		}
		bySender[e.Sender] = e
	}
	if e := bySender[0]; math.Abs(e.Blocked-1) > 1e-9 || e.Count != 1 {
		t.Fatalf("edge on P0: %+v", e)
	}
	if e := bySender[2]; math.Abs(e.Blocked-1) > 1e-9 || e.Count != 1 {
		t.Fatalf("edge on P2: %+v", e)
	}
	out := FormatWaitMatrix(edges)
	if !strings.Contains(out, "waiter") || !strings.Contains(out, "P1") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestWaitMatrixWindowed(t *testing.T) {
	f := waitLog(t)
	// Only the first read is inside [0, 4].
	edges := WaitMatrix(f, 0, 4)
	if len(edges) != 1 || edges[0].Sender != 0 {
		t.Fatalf("windowed edges %+v", edges)
	}
}

func TestWaitMatrixUnattributed(t *testing.T) {
	// A read with no arrival inside it goes to sender -1.
	cf := &clog2.File{NumRanks: 2}
	cf.Blocks = []clog2.Block{{Rank: 0, Records: []clog2.Record{
		{Type: clog2.RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Color: "salmon", Name: "PI_Select"},
		{Type: clog2.RecCargoEvt, Time: 1, Rank: 0, ID: 2},
		{Type: clog2.RecCargoEvt, Time: 2, Rank: 0, ID: 3},
	}}}
	sf, _, err := slog2.Convert(cf, slog2.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	edges := WaitMatrix(sf, sf.Start, sf.End)
	if len(edges) != 1 || edges[0].Sender != -1 {
		t.Fatalf("edges %+v", edges)
	}
	if out := FormatWaitMatrix(edges); !strings.Contains(out, "-") {
		t.Fatalf("unattributed sender not marked:\n%s", out)
	}
}
