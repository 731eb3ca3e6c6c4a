package jumpshot

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/slog2"
)

// The renderer's piece methods against what they replaced: fmt's %.1f, %.6f
// and %d, and a strings.Replacer built per call.

func TestAppendersMatchFmt(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		1e21, -1e21, 1e22, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308 / 2,
		0.05, 0.15, 0.25, 0.35, 0.45, 0.95, -0.25, 1234.25, 1234.75, // %.1f ties and near-ties
		0.0000005, 0.0000015, 0.0000025, 9.9999995, 999999.9999995, // %.6f ties and carries
		0.04999999999999999, 0.05000000000000001, 99.95, 99.94999999999999,
		1 << 53, 1<<53 + 2, 123456789012345678,
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		switch i % 4 {
		case 0: // pixel coordinates
			floats = append(floats, rng.Float64()*4096)
		case 1: // timestamps
			floats = append(floats, rng.Float64()*math.Pow(10, float64(rng.Intn(12)-6)))
		case 2: // any bit pattern
			floats = append(floats, math.Float64frombits(rng.Uint64()))
		case 3: // on or next to a rounding boundary
			x := float64(rng.Intn(200000)-100000) / 20
			floats = append(floats, x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)))
		}
	}
	for _, x := range floats {
		var m markup
		if got, want := string(*m.s("x=").f1(x).s(" t: ").f6(x)), fmt.Sprintf("x=%.1f t: %.6f", x, x); got != want {
			t.Fatalf("f1, f6 of %v give %q, %%.1f and %%.6f give %q", x, got, want)
		}
	}
	ints := []int{0, -1, 1, math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32}
	for i := 0; i < 10000; i++ {
		ints = append(ints, int(rng.Uint64()>>uint(rng.Intn(64))), -rng.Intn(1<<20))
	}
	for _, n := range ints {
		var m markup
		if got, want := string(*m.d(n)), fmt.Sprintf("%d", n); got != want {
			t.Fatalf("d(%d) gives %q, %%d gives %q", n, got, want)
		}
	}
}

func TestEscMatchesReplacer(t *testing.T) {
	old := func(s string) string {
		return strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;").Replace(s)
	}
	texts := []string{
		"", "plain", "&", "<", ">", `"`, "'", `& < > "`, "&&&&", "a&b<c>d\"e",
		"&amp; &lt; &gt; &quot;", // already escaped: escaped again, as before
		"naïve <café> & \"日本語\"", "line: lab2.go:147 proc: PI_MAIN idx: 0",
		"\xff\xfe<\x00>", "trailing&", "&leading", string([]byte{'<', 0xc3}),
	}
	rng := rand.New(rand.NewSource(2))
	alphabet := []rune(`ab &<>"'é日;#`)
	for i := 0; i < 10000; i++ {
		n := rng.Intn(24)
		var b strings.Builder
		for j := 0; j < n; j++ {
			b.WriteRune(alphabet[rng.Intn(len(alphabet))])
		}
		texts = append(texts, b.String())
	}
	for _, s := range texts {
		want := old(s)
		if got := esc(s); got != want {
			t.Fatalf("esc(%q) = %q, the Replacer gives %q", s, got, want)
		}
		var m markup
		if got := string(*m.s("x").esc(s)); got != "x"+want {
			t.Fatalf("markup.esc(%q) gives %q, the Replacer gives %q", s, got, "x"+want)
		}
	}
}

// One arrow, one event and one state rectangle into a warm buffer cost
// no allocation: the per-drawable path carries no fmt and no strings.
func TestDrawablesAppendWithoutAllocating(t *testing.T) {
	l := &layout{
		v:     View{From: 0, To: 10},
		plotW: 1112,
		rows:  []row{{shown: true, top: 34, h: 36, mid: []byte("52.0")}, {shown: true, top: 70, h: 36, mid: []byte("88.0")}},
	}
	cat := &catText{hex: "#ff0000", name: []byte("PI_Read")}
	arrow := &slog2.Arrow{SrcRank: 0, DstRank: 1, Start: 1.25, End: 1.5, Tag: 7, Size: 4096}
	event := &slog2.Event{Rank: 1, Time: 2.5, Cargo: `chan: C3 <&> "q"`}
	state := &slog2.State{Rank: 0, Start: 3, End: 4.5, StartCargo: "line: lab2.go:147"}
	lv := newLevel(37, 30)
	m := make(markup, 0, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		m = m[:0]
		m.arrow(l, "#ffffff", arrow)
		m.event(l, cat, event)
		m.state(cat, state, 12.5, 80.25, &lv)
	})
	if len(m) == 0 {
		t.Fatal("nothing rendered")
	}
	if allocs != 0 {
		t.Errorf("arrow + event + state rectangle: %v allocations, want 0", allocs)
	}
}
