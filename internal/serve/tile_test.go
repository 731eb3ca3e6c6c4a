package serve

import (
	"encoding/json"
	"math"
	"math/rand"
	"path/filepath"
	"strconv"
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

// checkTileFloat fails unless the appender writes f as encoding/json does.
func checkTileFloat(t testing.TB, f float64) {
	t.Helper()
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var j jsonAppender
	if j.float(f); string(j.b) != string(want) || j.err != nil {
		t.Fatalf("%v (%#016x): appended %s (%v), encoding/json writes %s", f, math.Float64bits(f), j.b, j.err, want)
	}
}

// FuzzTileFloat: for every finite float64 bit pattern, the appender
// writes what encoding/json writes. The seeds sit where a shortest-digit
// formatter goes wrong: powers of two (a nearer neighbour below), exact
// ties, the ends of the 'f' range and of the fast path, and times.
func FuzzTileFloat(f *testing.F) {
	for _, x := range []float64{0, 1, 0.1, 0.3, 1e-6, 9.999999999999999e-7, 1e21, 9.999999999999999e20,
		0x1p-19, 0x1p-20, 0x1p52, 0x1p52 - 0.5, 0x1p52 + 1, 0x1p53, 5e-324, 0x1p-1022,
		0.0012073012000000003, 123456789.125, 2.5, 1.0000000000000002, 0.9999999999999999, 0.8755137999999999} {
		f.Add(math.Float64bits(x))
		f.Add(math.Float64bits(-x))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		if x := math.Float64frombits(b); !math.IsNaN(x) && !math.IsInf(x, 0) {
			checkTileFloat(t, x)
		}
	})
}

// TestTileFloatSweep is what the fuzz seeds cannot hold: two million
// random values over [1e-6, 1e21), spread evenly over the exponents and
// uniform over [0, 2) where a trace's times lie; every power of two with
// both its neighbours; both zeros, the smallest normal and 2^52 either
// side.
func TestTileFloatSweep(t *testing.T) {
	for e := -1074; e <= 1023; e++ {
		x := math.Ldexp(1, e)
		for _, y := range []float64{x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1))} {
			checkTileFloat(t, y)
			checkTileFloat(t, -y)
		}
	}
	for _, x := range []float64{0, math.Copysign(0, -1), 0x1p-1022, 0x1p52, math.Nextafter(0x1p52, 0), math.Nextafter(0x1p52, 0x1p53)} {
		checkTileFloat(t, x)
	}
	rng := rand.New(rand.NewSource(38))
	n := 2_000_000
	if testing.Short() {
		n = 100_000
	}
	// In [1e-6, 1e21) encoding/json writes strconv's shortest 'f'.
	var j jsonAppender
	for i := 0; i < n; i++ {
		x := math.Pow(10, rng.Float64()*27-6)
		if i%2 == 1 {
			x = 2 * rng.Float64()
		}
		if x < 1e-6 || x >= 1e21 {
			continue
		}
		j.b = j.b[:0]
		if j.float(x); string(j.b) != strconv.FormatFloat(x, 'f', -1, 64) {
			checkTileFloat(t, x)
		}
	}
}

var tileFloatSink []byte

// BenchmarkTileFloat is one time of a JSON tile written the appender's
// way and strconv's (what the appender called before): uniform in
// [0, 2), 17 significant digits nearly always.
func BenchmarkTileFloat(b *testing.B) {
	xs := make([]float64, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range xs {
		xs[i] = 2 * rng.Float64()
	}
	b.Run("appender", func(b *testing.B) {
		j := jsonAppender{b: make([]byte, 0, 64)}
		for i := 0; i < b.N; i++ {
			j.b = j.b[:0]
			j.float(xs[i%len(xs)])
		}
		tileFloatSink = j.b
	})
	b.Run("strconv", func(b *testing.B) {
		buf := make([]byte, 0, 64)
		for i := 0; i < b.N; i++ {
			buf = strconv.AppendFloat(buf[:0], xs[i%len(xs)], 'f', -1, 64)
		}
		tileFloatSink = buf
	})
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
