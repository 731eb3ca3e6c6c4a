package serve

import (
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/jumpshot"
	"repro/internal/slog2"
)

// The appender's float rule is encoding/json's: 'f', or 'e' below 1e-6
// and from 1e21 up, with a one-digit negative exponent.
func TestTileFloatIsJSONs(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99e-7, 1e-7, -1e-7, 1.5e-9, 5e-324,
		1e20, 1e21, -1e21, 1.2345e22, 1e100, math.MaxFloat64, 0.0012073012000000003, 123456789.125,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		var j jsonAppender
		if j.float(f); string(j.b) != string(want) || j.err != nil {
			t.Errorf("%v: appended %s (%v), encoding/json writes %s", f, j.b, j.err, want)
		}
	}
}

// nonFiniteTrace is one state, one arrow and one event on two ranks,
// with a hole for a non-finite value.
func nonFiniteTrace() *slog2.File {
	return &slog2.File{
		NumRanks: 2, Start: 0, End: 10,
		Categories: []slog2.Category{{Name: "Compute", Color: "#ff0000"}, {Name: "Mark", Color: "#00ff00", Kind: slog2.KindEvent}},
		Root: &slog2.Frame{
			Start: 0, End: 10,
			States: []slog2.State{{Rank: 0, Cat: 0, Start: 1, End: 2}},
			Arrows: []slog2.Arrow{{SrcRank: 0, DstRank: 1, Start: 3, End: 4}},
			Events: []slog2.Event{{Rank: 1, Cat: 1, Time: 5}},
		},
	}
}

// A NaN or infinite time has no JSON form: the tile is an error, never a
// body with "NaN" in it. Over HTTP such a file never reaches the
// renderer: slog2.Read refuses the time by name, and the trace is a 422.
func TestTileJSONRefusesNonFinite(t *testing.T) {
	inf := math.Inf(1)
	all := jumpshot.Window{T0: 0, T1: 10, RankLo: 0, RankHi: -1}
	for _, c := range []struct {
		name  string
		win   jumpshot.Window
		plant func(*slog2.Frame)
	}{
		{"window t0 NaN", jumpshot.Window{T0: math.NaN(), T1: 10, RankHi: -1}, nil},
		{"window t1 +Inf", jumpshot.Window{T0: 0, T1: inf, RankHi: -1}, nil},
		{"window t0 -Inf", jumpshot.Window{T0: -inf, T1: 10, RankHi: -1}, nil},
		{"state start -Inf", all, func(fr *slog2.Frame) { fr.States[0].Start = -inf }},
		{"state end +Inf", all, func(fr *slog2.Frame) { fr.States[0].End = inf }},
		{"arrow end -Inf", all, func(fr *slog2.Frame) { fr.Arrows[0].End = -inf }},
		{"arrow start -Inf", all, func(fr *slog2.Frame) { fr.Arrows[0].Start = -inf }},
	} {
		f := nonFiniteTrace()
		if c.plant != nil {
			c.plant(f.Root)
		}
		if body, err := RenderTileJSON(&Trace{ID: "t", File: f}, c.win); err == nil {
			t.Errorf("%s: no error, body %s", c.name, body)
		}
	}
	if _, err := RenderTileJSON(&Trace{ID: "t", File: nonFiniteTrace()}, all); err != nil {
		t.Fatalf("finite trace: %v", err)
	}

	dir := t.TempDir()
	f := nonFiniteTrace()
	f.Root.States[0].End = inf
	if err := slog2.WriteFile(filepath.Join(dir, "inf.slog2"), f); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, dir)
	resp, body := get(t, ts.URL+"/trace/inf/tile", nil)
	if resp.StatusCode != 422 || !strings.Contains(string(body), "not finite") {
		t.Errorf("tile of an infinite state: status %d %q, want a 422 naming the time", resp.StatusCode, body)
	}
}
