package fmtspec

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, f string) []Spec {
	t.Helper()
	s, err := Parse(f)
	if err != nil {
		t.Fatalf("Parse(%q): %v", f, err)
	}
	return s
}

func TestParseScalars(t *testing.T) {
	specs := mustParse(t, "%c %hd %d %ld %hu %u %lu %f %lf %s")
	wantKinds := []Kind{KindChar, KindInt16, KindInt, KindInt64, KindUint16,
		KindUint, KindUint64, KindFloat32, KindFloat64, KindString}
	if len(specs) != len(wantKinds) {
		t.Fatalf("got %d specs, want %d", len(specs), len(wantKinds))
	}
	for i, s := range specs {
		if s.Kind != wantKinds[i] || s.Mode != Scalar {
			t.Errorf("spec %d = %+v, want kind %v scalar", i, s, wantKinds[i])
		}
	}
}

func TestParseArrayForms(t *testing.T) {
	specs := mustParse(t, "%25d %*f %^lf %3c")
	want := []Spec{
		{Kind: KindInt, Mode: Fixed, N: 25},
		{Kind: KindFloat32, Mode: Star},
		{Kind: KindFloat64, Mode: Caret},
		{Kind: KindChar, Mode: Fixed, N: 3},
	}
	if !reflect.DeepEqual(specs, want) {
		t.Fatalf("got %+v, want %+v", specs, want)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"d",
		"%",
		"%q",
		"%0d",
		"%*s",
		"%^s",
		"%5s",
		"%d %zz",
		"100",
		"%-3d",
	}
	for _, f := range bad {
		if _, err := Parse(f); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", f)
		}
	}
}

func TestCanonicalRoundtrip(t *testing.T) {
	formats := []string{
		"%d",
		"%d %100f",
		"%c %hd %d %ld %hu %u %lu %f %lf %s",
		"%25d %*f %^lf",
	}
	for _, f := range formats {
		specs := mustParse(t, f)
		canon := Canonical(specs)
		specs2 := mustParse(t, canon)
		if !reflect.DeepEqual(specs, specs2) {
			t.Errorf("Canonical roundtrip changed %q: %+v vs %+v", f, specs, specs2)
		}
	}
}

// Property: any parseable format survives Canonical → Parse unchanged.
func TestCanonicalParseProperty(t *testing.T) {
	kinds := []string{"c", "hd", "d", "ld", "hu", "u", "lu", "f", "lf"}
	gen := func(rng *rand.Rand) string {
		n := rng.Intn(5) + 1
		toks := make([]string, n)
		for i := range toks {
			k := kinds[rng.Intn(len(kinds))]
			switch rng.Intn(4) {
			case 0:
				toks[i] = "%" + k
			case 1:
				toks[i] = "%*" + k
			case 2:
				toks[i] = "%^" + k
			default:
				toks[i] = "%" + itoa(rng.Intn(99)+1) + k
			}
		}
		return strings.Join(toks, " ")
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		f := gen(rng)
		specs, err := Parse(f)
		if err != nil {
			t.Fatalf("Parse(%q): %v", f, err)
		}
		again, err := Parse(Canonical(specs))
		if err != nil || !reflect.DeepEqual(specs, again) {
			t.Fatalf("roundtrip failed for %q", f)
		}
	}
}

func itoa(n int) string {
	return string(rune('0'+n/10)) + string(rune('0'+n%10))
}

func TestCompatible(t *testing.T) {
	ok := [][2]string{
		{"%d", "%d"},
		{"%d %100f", "%d %100f"},
		{"%*d", "%5d"},
		{"%5d", "%*d"},
		{"%^d", "%^d"},
	}
	for _, p := range ok {
		if err := Compatible(mustParse(t, p[0]), mustParse(t, p[1])); err != nil {
			t.Errorf("Compatible(%q, %q): %v", p[0], p[1], err)
		}
	}
	bad := [][2]string{
		{"%d", "%f"},
		{"%d %d", "%d"},
		{"%5d", "%6d"},
		{"%^d", "%*d"},
		{"%^d", "%d"},
		{"%d", "%ld"},
	}
	for _, p := range bad {
		if err := Compatible(mustParse(t, p[0]), mustParse(t, p[1])); err == nil {
			t.Errorf("Compatible(%q, %q) succeeded, want error", p[0], p[1])
		}
	}
}

func encodeOne(t *testing.T, format string, args ...any) []byte {
	t.Helper()
	specs := mustParse(t, format)
	if len(specs) != 1 {
		t.Fatalf("encodeOne wants single-spec format, got %q", format)
	}
	p, n, err := Encode(specs[0], args)
	if err != nil {
		t.Fatalf("Encode(%q, %v): %v", format, args, err)
	}
	if n != len(args) {
		t.Fatalf("Encode consumed %d args, want %d", n, len(args))
	}
	return p
}

func TestScalarRoundtrips(t *testing.T) {
	var (
		c  byte
		h  int16
		d  int
		l  int64
		hu uint16
		u  uint
		lu uint64
		f  float32
		lf float64
		s  string
	)
	cases := []struct {
		format string
		in     any
		out    any
		check  func() bool
	}{
		{"%c", byte('x'), &c, func() bool { return c == 'x' }},
		{"%hd", int16(-1234), &h, func() bool { return h == -1234 }},
		{"%d", int(-987654321), &d, func() bool { return d == -987654321 }},
		{"%ld", int64(1) << 60, &l, func() bool { return l == 1<<60 }},
		{"%hu", uint16(65535), &hu, func() bool { return hu == 65535 }},
		{"%u", uint(42), &u, func() bool { return u == 42 }},
		{"%lu", uint64(1) << 63, &lu, func() bool { return lu == 1<<63 }},
		{"%f", float32(3.25), &f, func() bool { return f == 3.25 }},
		{"%lf", 2.718281828, &lf, func() bool { return lf == 2.718281828 }},
		{"%s", "hello world", &s, func() bool { return s == "hello world" }},
	}
	for _, tc := range cases {
		payload := encodeOne(t, tc.format, tc.in)
		spec := mustParse(t, tc.format)[0]
		if _, err := Decode(spec, payload, []any{tc.out}); err != nil {
			t.Errorf("Decode %q: %v", tc.format, err)
			continue
		}
		if !tc.check() {
			t.Errorf("%q roundtrip produced wrong value", tc.format)
		}
	}
}

func TestFixedArrayRoundtrip(t *testing.T) {
	in := []int{10, 20, 30}
	payload := encodeOne(t, "%3d", in)
	out := make([]int, 3)
	if _, err := Decode(mustParse(t, "%3d")[0], payload, []any{out}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("got %v, want %v", out, in)
	}
}

func TestStarArrayRoundtrip(t *testing.T) {
	in := []float64{1.5, -2.5, 99, 0}
	payload := encodeOne(t, "%*lf", 4, in)
	out := make([]float64, 10)
	n, err := Decode(mustParse(t, "%*lf")[0], payload, []any{4, out})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("consumed %d args, want 2", n)
	}
	if !reflect.DeepEqual(in, out[:4]) {
		t.Fatalf("got %v, want %v", out[:4], in)
	}
}

func TestStarCountExceedsSlice(t *testing.T) {
	specs := mustParse(t, "%*d")
	if _, _, err := Encode(specs[0], []any{5, []int{1, 2}}); err == nil {
		t.Fatal("Encode with count > len succeeded")
	}
}

func TestStarCountMismatchOnDecode(t *testing.T) {
	payload := encodeOne(t, "%*d", 3, []int{1, 2, 3})
	out := make([]int, 10)
	if _, err := Decode(mustParse(t, "%*d")[0], payload, []any{4, out}); err == nil {
		t.Fatal("Decode with mismatched reader count succeeded")
	}
}

func TestCaretRoundtripAutoAllocates(t *testing.T) {
	in := []int{7, 8, 9, 10, 11}
	payload := encodeOne(t, "%^d", in)
	var out []int
	if _, err := Decode(mustParse(t, "%^d")[0], payload, []any{&out}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("got %v, want %v", out, in)
	}
}

func TestCaretEmptySlice(t *testing.T) {
	payload := encodeOne(t, "%^f", []float32{})
	var out []float32
	if _, err := Decode(mustParse(t, "%^f")[0], payload, []any{&out}); err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || out == nil {
		t.Fatalf("got %v (nil=%v), want allocated empty slice", out, out == nil)
	}
}

func TestEncodeTypeMismatch(t *testing.T) {
	cases := []struct {
		format string
		args   []any
	}{
		{"%d", []any{int64(3)}}, // %d wants int, not int64
		{"%ld", []any{3}},       // %ld wants int64
		{"%f", []any{3.0}},      // %f wants float32
		{"%lf", []any{float32(1)}},
		{"%s", []any{[]byte("x")}},
		{"%3d", []any{[]int64{1, 2, 3}}},
		{"%*d", []any{"three", []int{1, 2, 3}}},
		{"%*d", []any{-1, []int{1}}},
	}
	for _, tc := range cases {
		specs := mustParse(t, tc.format)
		if _, _, err := Encode(specs[0], tc.args); err == nil {
			t.Errorf("Encode(%q, %v) succeeded, want error", tc.format, tc.args)
		}
	}
}

func TestDecodeTypeMismatch(t *testing.T) {
	payload := encodeOne(t, "%d", 7)
	spec := mustParse(t, "%d")[0]
	var f float64
	if _, err := Decode(spec, payload, []any{&f}); err == nil {
		t.Fatal("Decode into wrong pointer type succeeded")
	}
	var v int
	if _, err := Decode(spec, payload, []any{v}); err == nil {
		t.Fatal("Decode into non-pointer succeeded")
	}
}

func TestDecodePayloadSizeMismatch(t *testing.T) {
	spec := mustParse(t, "%d")[0]
	var v int
	if _, err := Decode(spec, []byte{1, 2, 3}, []any{&v}); err == nil {
		t.Fatal("Decode with short payload succeeded")
	}
}

func TestDecodeMissingArgs(t *testing.T) {
	spec := mustParse(t, "%*d")[0]
	if _, err := Decode(spec, nil, []any{3}); err == nil {
		t.Fatal("Decode with missing slice arg succeeded")
	}
	if _, _, err := Encode(spec, []any{3}); err == nil {
		t.Fatal("Encode with missing slice arg succeeded")
	}
}

// Property: int slices of any content roundtrip through %^d.
func TestCaretIntProperty(t *testing.T) {
	f := func(in []int) bool {
		spec := Spec{Kind: KindInt, Mode: Caret}
		payload, _, err := Encode(spec, []any{in})
		if err != nil {
			return false
		}
		var out []int
		if _, err := Decode(spec, payload, []any{&out}); err != nil {
			return false
		}
		if len(in) == 0 {
			return len(out) == 0
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: float64 values roundtrip exactly through %lf.
func TestFloat64Property(t *testing.T) {
	f := func(x float64) bool {
		spec := Spec{Kind: KindFloat64, Mode: Scalar}
		payload, _, err := Encode(spec, []any{x})
		if err != nil {
			return false
		}
		var out float64
		if _, err := Decode(spec, payload, []any{&out}); err != nil {
			return false
		}
		return out == x || (out != out && x != x) // NaN-safe
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDescribe(t *testing.T) {
	p := encodeOne(t, "%d", 42)
	if got := Describe(mustParse(t, "%d")[0], p); got != "val: 42" {
		t.Errorf("Describe scalar = %q", got)
	}
	p = encodeOne(t, "%3lf", []float64{1.5, 2, 3})
	if got := Describe(mustParse(t, "%3lf")[0], p); got != "len: 3 first: 1.5" {
		t.Errorf("Describe fixed = %q", got)
	}
	p = encodeOne(t, "%^d", []int{9, 8})
	if got := Describe(mustParse(t, "%^d")[0], p); got != "len: 2 first: 9" {
		t.Errorf("Describe caret = %q", got)
	}
	p = encodeOne(t, "%s", "hello world!")
	got := Describe(mustParse(t, "%s")[0], p)
	if !strings.HasPrefix(got, "len: 12 first:") {
		t.Errorf("Describe string = %q", got)
	}
	// Popup-text convention from the paper: begin with literal text, never
	// with a substitution.
	for _, d := range []string{got} {
		if strings.HasPrefix(d, "%") || d[0] >= '0' && d[0] <= '9' {
			t.Errorf("Describe output %q violates literal-prefix convention", d)
		}
	}
}

func TestElemSizes(t *testing.T) {
	want := map[Kind]int{
		KindChar: 1, KindInt16: 2, KindUint16: 2, KindFloat32: 4,
		KindInt: 8, KindInt64: 8, KindUint: 8, KindUint64: 8, KindFloat64: 8,
		KindString: 0,
	}
	for k, n := range want {
		if got := k.ElemSize(); got != n {
			t.Errorf("ElemSize(%v) = %d, want %d", k, got, n)
		}
	}
}

// AppendEncode appends behind what dst holds the bytes Encode returns, and
// hands dst back as it was when the arguments do not fit; CheckRead refuses
// what Decode would, before any payload is seen.
func TestAppendEncodeAndCheckRead(t *testing.T) {
	for _, tc := range []struct {
		format string
		args   []any
	}{{"%d", []any{7}}, {"%3hd", []any{[]int16{1, -2, 3}}}, {"%*lf", []any{2, []float64{1.5, 2.5, 9}}}, {"%^c", []any{[]byte("xyz")}}, {"%s", []any{"hi"}}} {
		spec := mustParse(t, tc.format)[0]
		want, _, err := Encode(spec, tc.args)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := AppendEncode([]byte("kept"), spec, tc.args)
		if err != nil || n != len(tc.args) || string(got) != "kept"+string(want) {
			t.Errorf("AppendEncode(%q) = %q, %d, %v; want %q", tc.format, got, n, err, "kept"+string(want))
		}
	}
	if got, _, err := AppendEncode([]byte("kept"), mustParse(t, "%d")[0], []any{1.5}); err == nil || string(got) != "kept" {
		t.Errorf("AppendEncode of a float64 for %%d gives %q, %v", got, err)
	}
	var d int
	var f float64
	for _, tc := range []struct {
		format string
		args   []any
		ok     bool
	}{
		{"%d", []any{&d}, true},
		{"%d", []any{&f}, false},
		{"%d", []any{d}, false},
		{"%*d", []any{2, make([]int, 2)}, true},
		{"%*d", []any{3, make([]int, 2)}, false},
		{"%2d", []any{make([]float64, 2)}, false},
		{"%^d", []any{new([]int)}, true},
		{"%^d", []any{make([]int, 1)}, false},
	} {
		n, err := CheckRead(mustParse(t, tc.format)[0], tc.args)
		if (err == nil) != tc.ok || tc.ok && n != len(tc.args) {
			t.Errorf("CheckRead(%q, %T) = %d, %v", tc.format, tc.args[len(tc.args)-1], n, err)
		}
	}
}

// Canonical renders specs back to a normalised format string; two formats
// with equal Canonical forms are identical.
func Canonical(specs []Spec) string {
	var b []byte
	for i, s := range specs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = s.AppendText(b)
	}
	return string(b)
}

// Describe is AppendDescribe's summary as a string.
func Describe(s Spec, payload []byte) string {
	var buf [DescribeMax]byte
	return string(AppendDescribe(buf[:0], s, payload))
}
