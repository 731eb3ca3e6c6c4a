package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/clog2"
)

// writeTestLog encodes each rank's records as a CLOG-2 stream, in blocks of
// at most clog2.MaxBlockRecords.
func writeTestLog(t *testing.T, numRanks int, blocks map[int32][]clog2.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := clog2.NewWriter(&buf, numRanks)
	if err != nil {
		t.Fatal(err)
	}
	for rank := int32(0); rank < int32(numRanks); rank++ {
		if recs := blocks[rank]; len(recs) > 0 {
			if err := w.WriteCut(clog2.NewCut(rank, numRanks, clog2.MaxBlockRecords, recs)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func stateDef(id, start, end int32, name string) clog2.Record {
	return clog2.Record{Type: clog2.RecStateDef, ID: id, Aux1: start, Aux2: end, Name: name}
}

func bare(rank int32, tm float64, etype int32) clog2.Record {
	return clog2.Record{Type: clog2.RecBareEvt, Rank: rank, Time: tm, ID: etype}
}

func msg(rank int32, tm float64, dir uint8, peer, tag, size int32) clog2.Record {
	return clog2.Record{Type: clog2.RecMsgEvt, Rank: rank, Time: tm, Dir: dir,
		Aux1: peer, Aux2: tag, Aux3: size}
}

func TestComputeProfileSynthetic(t *testing.T) {
	// Two ranks. State 1 ("PI_Read", input → blocked) over etypes 2/3;
	// state 2 ("Compute", admin → busy) over etypes 4/5. Rank 0 nests a
	// read inside compute, so self-time splits: compute 1.0s total minus
	// the 0.25s read.
	raw := writeTestLog(t, 2, map[int32][]clog2.Record{
		0: {
			stateDef(1, 2, 3, "PI_Read"),
			stateDef(2, 4, 5, "Compute"),
			bare(0, 0.0, 4),                        // Compute start
			bare(0, 0.5, 2),                        // PI_Read start (nested)
			msg(0, 0.70, clog2.DirRecv, 1, 7, 100), // recv 100 B on chan 7
			bare(0, 0.75, 3),                       // PI_Read end: 0.25 s
			bare(0, 1.0, 5),                        // Compute end: 1.0 s total, 0.75 s self
			bare(0, 1.0, clog2.SoloBase+1),         // a solo event
			msg(0, 1.25, clog2.DirSend, 1, 9, 40),  // send 40 B on chan 9
		},
		1: {
			bare(1, 0.1, 4),
			msg(1, 0.60, clog2.DirSend, 0, 7, 100),
			bare(1, 0.9, 5),
			msg(1, 1.30, clog2.DirRecv, 0, 9, 40),
		},
	})

	p, err := ComputeProfile(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if p.Schema != ProfileSchema {
		t.Errorf("schema = %q, want %q", p.Schema, ProfileSchema)
	}
	if p.NumRanks != 2 {
		t.Errorf("num_ranks = %d, want 2", p.NumRanks)
	}
	if p.Unpaired != 0 {
		t.Errorf("unpaired = %d, want 0", p.Unpaired)
	}

	// Channel accounting.
	if len(p.Channels) != 2 {
		t.Fatalf("got %d channels, want 2: %+v", len(p.Channels), p.Channels)
	}
	c7, c9 := p.Channels[0], p.Channels[1]
	if c7.Chan != 7 || c7.Sends != 1 || c7.SendBytes != 100 || c7.Recvs != 1 || c7.RecvBytes != 100 {
		t.Errorf("chan 7 = %+v", c7)
	}
	if c9.Chan != 9 || c9.Sends != 1 || c9.SendBytes != 40 || c9.Recvs != 1 || c9.RecvBytes != 40 {
		t.Errorf("chan 9 = %+v", c9)
	}

	// Rank accounting.
	if len(p.Ranks) != 2 {
		t.Fatalf("got %d ranks", len(p.Ranks))
	}
	r0 := p.Ranks[0]
	if r0.Sends != 1 || r0.Recvs != 1 || r0.SendBytes != 40 || r0.RecvBytes != 100 {
		t.Errorf("rank 0 message accounting = %+v", r0)
	}
	if r0.Events != 1 {
		t.Errorf("rank 0 events = %d, want 1 (the solo)", r0.Events)
	}
	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if !approx(r0.BlockedSec, 0.25) {
		t.Errorf("rank 0 blocked = %v, want 0.25 (the nested read)", r0.BlockedSec)
	}
	if !approx(r0.BusySec, 0.75) {
		t.Errorf("rank 0 busy = %v, want 0.75 (compute self-time)", r0.BusySec)
	}
	if !approx(r0.WallSec, 1.25) {
		t.Errorf("rank 0 wall = %v, want 1.25", r0.WallSec)
	}

	// Totals.
	if p.Totals.Sends != 2 || p.Totals.Recvs != 2 || p.Totals.SendBytes != 140 || p.Totals.RecvBytes != 140 {
		t.Errorf("totals = %+v", p.Totals)
	}

	// States, sorted by ID: PI_Read (1) then Compute (2).
	if len(p.States) != 2 {
		t.Fatalf("got %d states: %+v", len(p.States), p.States)
	}
	read, comp := p.States[0], p.States[1]
	if read.Name != "PI_Read" || read.Category != "input" || read.Count != 1 {
		t.Errorf("read state = %+v", read)
	}
	if !approx(read.TotalSec, 0.25) || !approx(read.SelfSec, 0.25) || !approx(read.MaxSec, 0.25) {
		t.Errorf("read durations = %+v", read)
	}
	if comp.Name != "Compute" || comp.Category != "admin" || comp.Count != 2 {
		t.Errorf("compute state = %+v", comp)
	}
	if !approx(comp.TotalSec, 1.8) || !approx(comp.SelfSec, 1.55) {
		t.Errorf("compute total/self = %v/%v, want 1.8/1.55", comp.TotalSec, comp.SelfSec)
	}
	if !approx(comp.MaxSec, 1.0) {
		t.Errorf("compute max = %v, want 1.0", comp.MaxSec)
	}
	// Quantiles come from a log2 histogram over nanoseconds: bounded
	// above by max, below by min.
	if comp.P95Sec > comp.MaxSec+1e-9 || comp.P50Sec > comp.P95Sec+1e-9 {
		t.Errorf("quantile ordering violated: p50=%v p95=%v max=%v", comp.P50Sec, comp.P95Sec, comp.MaxSec)
	}

	// Text rendering mentions the load-bearing numbers.
	text := p.Format()
	for _, want := range []string{"C7", "C9", "PI_Read", "Compute", "2 send(s)"} {
		if !strings.Contains(text, want) {
			t.Errorf("Format() missing %q:\n%s", want, text)
		}
	}
}

// A state that only ever starts (no end before the log stops) yields
// zero completed samples; the per-state report must still render with
// zeroed quantiles rather than dividing by the empty count.
func TestProfileZeroSampleState(t *testing.T) {
	raw := writeTestLog(t, 1, map[int32][]clog2.Record{
		0: {
			stateDef(1, 2, 3, "PI_Write"),
			bare(0, 0.0, 2), // starts, never ends
		},
	})
	p, err := ComputeProfile(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.States) != 0 {
		// No completed occurrence: no state row at all is also fine, but
		// if one appears its quantiles must be zero.
		s := p.States[0]
		if s.Count != 0 || s.P50Sec != 0 || s.P95Sec != 0 {
			t.Errorf("zero-sample state rendered %+v", s)
		}
	}
	if p.Unpaired != 0 {
		t.Errorf("an unclosed start is not an unpaired end: %d", p.Unpaired)
	}
}

// Ends with no start (salvaged fragment shapes) are counted, not fatal.
func TestProfileUnpairedEnds(t *testing.T) {
	raw := writeTestLog(t, 1, map[int32][]clog2.Record{
		0: {
			stateDef(1, 2, 3, "PI_Read"),
			bare(0, 0.5, 3), // end without start
			bare(0, 0.6, 3), // again
		},
	})
	p, err := ComputeProfile(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if p.Unpaired != 2 {
		t.Errorf("unpaired = %d, want 2", p.Unpaired)
	}
	if !strings.Contains(p.Format(), "unpaired") {
		t.Error("Format() does not warn about unpaired ends")
	}
}

// Without StateDef records (a defs-less salvaged log) the etype parity
// fallback still pairs starts with ends.
func TestProfileParityFallback(t *testing.T) {
	raw := writeTestLog(t, 1, map[int32][]clog2.Record{
		0: {
			bare(0, 0.0, 8), // etype 8 = start of state 4
			bare(0, 0.5, 9), // etype 9 = its end
		},
	})
	p, err := ComputeProfile(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.States) != 1 {
		t.Fatalf("got %d states", len(p.States))
	}
	s := p.States[0]
	if s.Count != 1 || math.Abs(s.TotalSec-0.5) > 1e-9 {
		t.Errorf("parity-paired state = %+v", s)
	}
	if s.Name != "state 4" {
		t.Errorf("synthesized name = %q", s.Name)
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	raw := writeTestLog(t, 1, map[int32][]clog2.Record{
		0: {msg(0, 0.1, clog2.DirSend, 0, 1, 10)},
	})
	p, err := ComputeProfile(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Profile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != ProfileSchema || back.Totals.Sends != 1 || back.Totals.SendBytes != 10 {
		t.Errorf("round trip lost data: %+v", back)
	}
}

func TestProfileEmptyLog(t *testing.T) {
	raw := writeTestLog(t, 3, nil)
	p, err := ComputeProfile(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if p.NumRanks != 3 {
		t.Errorf("num_ranks = %d", p.NumRanks)
	}
	if p.Totals != (ProfileTotals{}) {
		t.Errorf("empty log produced totals %+v", p.Totals)
	}
	if out := p.Format(); !strings.Contains(out, "0 record(s)") {
		t.Errorf("empty Format() = %q", out)
	}
}

func TestComputeProfileBadInput(t *testing.T) {
	if _, err := ComputeProfile(bytes.NewReader([]byte("not a clog2 file"))); err == nil {
		t.Error("garbage input did not error")
	}
	if _, err := ComputeProfileFile("/nonexistent/path.clog2"); err == nil {
		t.Error("missing file did not error")
	}
}

// Each rank folds on its own and the profile merges them as the walk hands
// them over, in rank order: a rank whose only record opened a state (so
// its observer saw nothing) keeps its record count and span, and a rank
// that counted no record (a window cut all of its blocks) has no row.
func TestProfileRanksSortedWhateverTheFoldOrder(t *testing.T) {
	e := clog2.NewEtypes(nil)
	pp := NewProfiler(e, 4, math.Inf(-1), math.Inf(1))
	var ranks []*RankProfiler
	for _, recs := range [][]clog2.Record{
		{msg(1, 2.0, clog2.DirSend, 3, 7, 64)},
		{bare(2, 3.0, 2)},
		{bare(3, 1.0, clog2.SoloBase+1), bare(3, 4.0, clog2.SoloBase+1)},
		nil,
	} {
		rank := int32(len(ranks) + 1)
		rp := pp.Rank(clog2.NewFold(e, rank))
		if err := rp.Visit(clog2.Block{Rank: rank, Records: recs}); err != nil {
			t.Fatal(err)
		}
		ranks = append(ranks, rp)
	}
	p := pp.Profile(ranks)
	want := []RankProfile{
		{Rank: 1, Records: 1, Sends: 1, SendBytes: 64},
		{Rank: 2, Records: 1},
		{Rank: 3, Records: 2, Events: 2, WallSec: 3},
	}
	if len(p.Ranks) != len(want) {
		t.Fatalf("ranks %+v", p.Ranks)
	}
	for i := range want {
		if p.Ranks[i] != want[i] {
			t.Errorf("rank row %d = %+v, want %+v", i, p.Ranks[i], want[i])
		}
	}
	if p.NumRanks != 4 || p.Totals.Records != 4 || p.Totals.Events != 2 || p.Totals.Sends != 1 {
		t.Fatalf("totals %+v over %d ranks", p.Totals, p.NumRanks)
	}
}
