package jumpshot

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// pow10[i] is 1e(i-6): the powers of ten either side of which the fuzz
// seeds sit, where a digit-count formatter once went wrong.
var pow10 = [...]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1,
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// checkFixed compares appendFixed with strconv at both precisions the
// renderer uses, and at -1, the shortest form AppendShortest writes.
func checkFixed(t testing.TB, x float64) {
	t.Helper()
	for _, prec := range []int{1, 6, -1} {
		want := strconv.AppendFloat(nil, x, 'f', prec, 64)
		if got := appendFixed(nil, x, prec); string(got) != string(want) {
			t.Fatalf("appendFixed(%b = %g, %d) = %q, strconv has %q", x, x, prec, got, want)
		}
	}
}

// FuzzAppendFixed: appendFixed is strconv's 'f' formatting byte for byte.
// The seeds are where a digit-count formatter goes wrong: exact binary
// ties, carries into a new digit, either side of every power of ten,
// values that round to or from zero, and everything strconv keeps.
func FuzzAppendFixed(f *testing.F) {
	seeds := []float64{0, math.Copysign(0, -1), 0.25, 0.75, 0.05, 0.15, 0.5, 1.5, 2.5,
		0.0000005, 0.0000015, 0.00000049, 0.0000025, 9.96, 9.95, 99.95, 999.95, 0.96, 0.94,
		0.9999996, 0.99999949, 9.9999995, 74, 1186, 1185.95, 123456.789, 1e-5, 9e-6, 1e-6,
		9.99e-7, 1e-7, 1e-300, 5e-324, 2.2250738585072014e-308, 1e11, 99999999999.95,
		1e12, 1e14, 999999999999999.9, 1e15, 1e16, 1e22, 1e300, math.MaxFloat64,
		0x1p-20, 0x1p-21, 0x1p52, 0x1p52 - 0.5, 0x1p52 + 1, math.NaN(), math.Inf(1), math.Inf(-1)}
	for i := range pow10 {
		seeds = append(seeds, pow10[i], math.Nextafter(pow10[i], 0), math.Nextafter(pow10[i], 2*pow10[i]))
	}
	for _, x := range seeds {
		f.Add(x)
		f.Add(-x)
	}
	f.Fuzz(func(t *testing.T, x float64) { checkFixed(t, x) })
}

// TestAppendFixedRandom sweeps what the fuzz seeds cannot: every power
// of two either side of shortest's range with both neighbours, a million
// values spread evenly over the exponents a drawing produces, and halves
// of the last place on short decimals.
func TestAppendFixedRandom(t *testing.T) {
	for e := -30; e <= 60; e++ {
		x := math.Ldexp(1, e)
		checkFixed(t, x)
		checkFixed(t, math.Nextafter(x, 0))
		checkFixed(t, math.Nextafter(x, math.Inf(1)))
	}
	rng := rand.New(rand.NewSource(16))
	n := 1_000_000
	if testing.Short() {
		n = 50_000
	}
	for i := 0; i < n; i++ {
		x := math.Pow(10, rng.Float64()*24-8) * (1 + rng.Float64())
		if i%2 == 0 {
			// k/20 and k/2e7 sit on or beside the rounding boundaries of
			// one and six places.
			x = float64(rng.Intn(40000)) / 20
			if i%4 == 0 {
				x = float64(rng.Intn(1<<30)) / 2e7
			}
		}
		checkFixed(t, x)
		checkFixed(t, -x)
	}
}

var fixedSink []byte

func BenchmarkAppendFixed(b *testing.B) {
	xs := make([]float64, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range xs {
		xs[i] = 74 + rng.Float64()*1100
	}
	for _, c := range []struct {
		name string
		fn   func([]byte, float64) []byte
	}{
		{"strconv_f1", func(b []byte, x float64) []byte { return strconv.AppendFloat(b, x, 'f', 1, 64) }},
		{"fixed_f1", func(b []byte, x float64) []byte { return appendFixed(b, x, 1) }},
		{"strconv_f6", func(b []byte, x float64) []byte { return strconv.AppendFloat(b, x/100, 'f', 6, 64) }},
		{"fixed_f6", func(b []byte, x float64) []byte { return appendFixed(b, x/100, 6) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			buf := make([]byte, 0, 64)
			for i := 0; i < b.N; i++ {
				fixedSink = c.fn(buf, xs[i%len(xs)])
			}
		})
	}
}
