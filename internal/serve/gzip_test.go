package serve

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/clog2"
	"repro/internal/jumpshot"
	"repro/internal/slog2"
)

// gunzip inflates z through the standard library, failing the test on
// any error.
func gunzip(t testing.TB, z []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(z))
	if err != nil {
		t.Fatal(err)
	}
	zr.Multistream(false)
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// maxGzipLen is the stated expansion bound: the 18 bytes of gzip framing,
// a code-length header of at most 420 bytes a block, and 1/64 of the
// input. One MiB of random bytes comes out 0.24 % larger, within it.
func maxGzipLen(n int) int {
	blocks := 1 + n/gzBlockTokens
	return n + n/64 + 18 + 420*blocks
}

// gzipOf is e's gzip of in, appended to dst.
func gzipOf(e *gzEncoder, dst, in []byte) []byte {
	return e.appendGzip(dst, in, crc32.ChecksumIEEE(in))
}

func checkGzip(t *testing.T, name string, in []byte) []byte {
	t.Helper()
	// warm has seen in already: were its stale table entries taken for
	// live ones, they would all match.
	var fresh, warm gzEncoder
	gzipOf(&warm, nil, in)
	z := gzipOf(&fresh, nil, in)
	if out := gunzip(t, z); !bytes.Equal(out, in) {
		t.Fatalf("%s: %d bytes inflate to %d different bytes", name, len(in), len(out))
	}
	if again := gzipOf(&warm, []byte("prefix"), in); !bytes.Equal(again[6:], z) {
		t.Fatalf("%s: a reused encoder wrote different bytes", name)
	}
	if len(z) > maxGzipLen(len(in)) {
		t.Fatalf("%s: %d bytes compressed to %d, over the bound %d", name, len(in), len(z), maxGzipLen(len(in)))
	}
	return z
}

func randomBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestGzipCases(t *testing.T) {
	sized := func(n int) []byte { return bytes.Repeat([]byte("<rect x=\"12.5\"/>"), n/16+1)[:n] }
	// Literal runs: random bytes are all literals. 100 000 bytes of text
	// are 16 literals and 388 matches, so the first block's 16 384 tokens
	// run out 15 980 bytes into the random run after them. 16 + 3·258
	// bytes of text end in a match of DEFLATE's longest, 258 bytes, with
	// a run straight after it.
	r := randomBytes(8, 20000)
	closing := append(sized(100000), r...)
	after258 := append(sized(16+3*258), r[:500]...)
	for _, c := range []struct {
		name string
		in   []byte
	}{
		{"empty", nil},
		{"1 byte", []byte{'x'}},
		{"511 bytes", sized(511)},
		{"512 bytes", sized(512)},
		{"513 bytes", sized(513)},
		{"run of 1000", bytes.Repeat([]byte{'a'}, 1000)},
		{"8 bytes", []byte("abcdabcd")},
		{"9 bytes", []byte("abcdabcda")},
		{"random 1 MiB", randomBytes(1, 1<<20)},
		{"random then text", append(randomBytes(2, 100000), sized(100000)...)},
		{"a run longer than a block", randomBytes(7, 70000)},
		{"a block closing inside a run", closing},
		{"a run after a 258-byte match", after258},
	} {
		checkGzip(t, c.name, c.in)
	}
}

// A run past DEFLATE's longest match comes out as a chain of 258-byte
// matches: a few bytes, not one a byte.
func TestGzipLongRun(t *testing.T) {
	z := checkGzip(t, "run", bytes.Repeat([]byte{'a'}, 100000))
	if len(z) > 1000 {
		t.Errorf("100000 equal bytes took %d bytes", len(z))
	}
}

// DEFLATE reaches back 32 768 bytes and no further: a repeat at exactly
// that distance is taken, one a byte further is not (it has no code).
func TestGzipWindowEdge(t *testing.T) {
	chunk := randomBytes(3, 258)
	for i := range chunk {
		chunk[i] |= 0x80 // bytes the filler never holds
	}
	size := map[int]int{}
	for _, dist := range []int{gzMaxDist, gzMaxDist + 1} {
		filler := bytes.Repeat([]byte("0123456789abcdef"), dist/16+1)[:dist-len(chunk)]
		in := append(append(append([]byte{}, chunk...), filler...), chunk...)
		size[dist] = len(checkGzip(t, fmt.Sprint("distance ", dist), in))
	}
	if size[gzMaxDist]+200 > size[gzMaxDist+1] {
		t.Errorf("compressed %d bytes with the repeat at %d, %d at %d: the repeat in the window went untaken",
			size[gzMaxDist], gzMaxDist, size[gzMaxDist+1], gzMaxDist+1)
	}
}

// An earlier body's table entries are never taken for a later one's:
// a's "abcdEFGH" at 1 would be a 4-byte match for b's at 9, which a
// fresh encoder does not see. (FuzzGzip's corpus holds the converse: an
// empty slot must not read as position 0.)
func TestGzipForgetsEarlierBodies(t *testing.T) {
	a, b := []byte("ZabcdEFGH12345678"), []byte("QabcdXXXXabcdEFGH87654321")
	var fresh, warm gzEncoder
	gzipOf(&warm, nil, a)
	if !bytes.Equal(gzipOf(&warm, nil, b), gzipOf(&fresh, nil, b)) {
		t.Fatal("a reused encoder took a match from an earlier body")
	}
}

// An input of several token blocks: literals and matches both straddle
// the block boundaries.
func TestGzipManyBlocks(t *testing.T) {
	var in []byte
	rng := rand.New(rand.NewSource(4))
	for len(in) < 6*gzBlockTokens*4 {
		if rng.Intn(2) == 0 {
			in = append(in, randomBytes(rng.Int63(), rng.Intn(300))...)
		} else if len(in) > 0 {
			from := rng.Intn(len(in))
			in = append(in, in[from:from+rng.Intn(len(in)-from)%600]...)
		}
	}
	var e gzEncoder
	z := gzipOf(&e, nil, in)
	if out := gunzip(t, z); !bytes.Equal(out, in) {
		t.Fatal("a multi-block input does not round-trip")
	}
	checkGzip(t, "many blocks", in)
}

// fib is the Fibonacci sequence from 1, 1: frequencies whose optimal
// code is as deep as there are symbols.
func fib(n int) []uint32 {
	f := make([]uint32, n)
	for i := range f {
		f[i] = 1
		if i > 1 {
			f[i] = f[i-1] + f[i-2]
		}
	}
	return f
}

// Fibonacci frequencies make an optimal code deeper than DEFLATE allows:
// the code built must stop at the limit, stay complete (Kraft sum 1) and
// be prefix-free, for the 15-bit literal/length code and for the 7-bit
// code-length code.
func TestGzipHuffmanLengthLimit(t *testing.T) {
	for _, c := range []struct {
		freq    []uint32
		maxBits int
	}{
		{append(fib(25), make([]uint32, gzNumLit-25)...), gzMaxBits},
		{fib(19), gzMaxCLBits},
		{fib(2), gzMaxCLBits},
	} {
		lens := make([]uint8, len(c.freq))
		codes := make([]uint16, len(c.freq))
		huffman(c.freq, lens, codes, c.maxBits)
		kraft, longest := 0, 0
		for _, l := range lens {
			if l > 0 {
				kraft += 1 << (c.maxBits - int(l))
				longest = max(longest, int(l))
			}
		}
		if kraft != 1<<c.maxBits || longest > c.maxBits || (len(c.freq) > c.maxBits+1 && longest != c.maxBits) {
			t.Errorf("%d symbols under %d bits: Kraft sum %d/%d, longest %d", len(c.freq), c.maxBits, kraft, 1<<c.maxBits, longest)
		}
		seen := map[[2]int]bool{}
		for sym, l := range lens {
			if l == 0 {
				continue
			}
			for p := 1; p <= int(l); p++ { // no code is a prefix of another
				if seen[[2]int{p, int(codes[sym]) & (1<<p - 1)}] && p < int(l) || seen[[2]int{int(l), int(codes[sym])}] {
					t.Fatalf("%d symbols: code of %d is not prefix-free", len(c.freq), sym)
				}
			}
			seen[[2]int{int(l), int(codes[sym])}] = true
		}
	}

	// The same literals end to end: a block of Fibonacci-weighted
	// literals, written with its 15-bit-limited code, inflates back.
	var lits []byte
	for sym, f := range fib(25) {
		lits = append(lits, bytes.Repeat([]byte{byte('A' + sym)}, int(f))...)
	}
	rand.New(rand.NewSource(5)).Shuffle(len(lits), func(i, j int) { lits[i], lits[j] = lits[j], lits[i] })
	lits = lits[:gzBlockTokens-1]
	var e gzEncoder
	gzipOf(&e, nil, nil) // leaves a block started, its tokens empty
	e.literals(lits)
	e.writeBlock(1)
	e.write(0, 7) // out to the byte
	if longest := slices.Max(e.litLen[:256]); longest != gzMaxBits {
		t.Errorf("longest literal code %d bits, want the %d-bit limit", longest, gzMaxBits)
	}
	out, err := io.ReadAll(flate.NewReader(bytes.NewReader(e.out)))
	if err != nil || !bytes.Equal(out, lits) {
		t.Fatalf("Fibonacci block: %v, inflates to %d bytes of %d", err, len(out), len(lits))
	}
}

// goldenBodies is every golden tile and SVG.
func goldenBodies(t testing.TB) map[string][]byte {
	var names []string
	for _, pattern := range []string{"*.tile-*", "*.svg"} {
		m, err := filepath.Glob(filepath.Join(goldenDir, pattern))
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, m...)
	}
	bodies := map[string][]byte{}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		bodies[filepath.Base(name)] = b
	}
	if len(bodies) == 0 {
		t.Fatal("no golden tiles")
	}
	return bodies
}

// Every golden tile and SVG round-trips, and together they come out no
// larger than compress/gzip makes them at BestSpeed.
func TestGzipGoldens(t *testing.T) {
	ours, std := 0, 0
	for name, body := range goldenBodies(t) {
		ours += len(checkGzip(t, name, body))
		var buf bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
		zw.Write(body)
		zw.Close()
		std += buf.Len()
	}
	if ours > std {
		t.Errorf("the goldens compressed to %d bytes, %d at BestSpeed", ours, std)
	}
}

// Concurrent misses each take their own scratch from the free list, and
// every output is right (run under -race).
func TestGzipConcurrent(t *testing.T) {
	bodies := goldenBodies(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name, body := range bodies {
				sc := getScratch()
				cb, _ := newCachedBody(sc, body, "text/plain")
				putScratch(sc)
				if cb.gz == nil {
					continue
				}
				zr, err := gzip.NewReader(bytes.NewReader(cb.gz))
				if err != nil {
					t.Error(err)
					return
				}
				if out, err := io.ReadAll(zr); err != nil || !bytes.Equal(out, body) {
					t.Errorf("%s: concurrent compression does not round-trip (%v)", name, err)
				}
			}
		}()
	}
	wg.Wait()
}

func FuzzGzip(f *testing.F) {
	for _, seed := range [][]byte{nil, []byte("a"), []byte("abcdabcdabcdabcd"), bytes.Repeat([]byte{0}, 600), randomBytes(6, 700)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		checkGzip(t, "fuzz input", in)
	})
}

// BenchmarkGzip compresses every golden tile and SVG per op: MB/s of
// input, and the compressed size as a ratio. compress/gzip at BestSpeed,
// the level the server used before, is the reference row. The goldens
// are small and mostly SVG, so the svg and json rows compress one large
// tile each: the first 10 % of fullSpanFile(100 000 rounds) at zoom 0.
// Their times are short decimals (0.07768), so literals are 1.1 % and
// 0.8 % of their bytes (29 833 literal tokens in the json tile's 3 809 544
// bytes). The json-jittered row is the json tile of the same log with
// every record's time moved by a seeded jitter under 0.1 µs, so that each
// time carries full precision: 25.4 % of its bytes are literals (1 080 068
// of 4 245 747, the literal tokens writeBlock emits over the body's bytes),
// so it times the literal runs the other rows barely reach.
func BenchmarkGzip(b *testing.B) {
	bodies := goldenBodies(b)
	total := 0
	for _, body := range bodies {
		total += len(body)
	}
	b.Run("appendGzip", func(b *testing.B) {
		var e gzEncoder
		var out []byte
		b.SetBytes(int64(total))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			for _, body := range bodies {
				out = gzipOf(&e, out[:0], body)
				n += len(out)
			}
			b.ReportMetric(float64(n)/float64(total), "ratio")
		}
	})
	b.Run("BestSpeed", func(b *testing.B) {
		var buf bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
		b.SetBytes(int64(total))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			for _, body := range bodies {
				buf.Reset()
				zw.Reset(&buf)
				zw.Write(body)
				zw.Close()
				n += buf.Len()
			}
			b.ReportMetric(float64(n)/float64(total), "ratio")
		}
	})
	recs := fullSpanRecords(100_000)
	plain := convertRanks(b, recs)
	rng := rand.New(rand.NewSource(1))
	for _, rs := range recs {
		for i := range rs {
			if rs[i].Type == clog2.RecCargoEvt || rs[i].Type == clog2.RecMsgEvt {
				rs[i].Time += rng.Float64() * 1e-7
			}
		}
	}
	for _, row := range []struct {
		name, format string
		f            *slog2.File
	}{
		{"svg", "svg", plain},
		{"json", "json", plain},
		{"json-jittered", "json", convertRanks(b, recs)},
	} {
		f := row.f
		win := jumpshot.Window{T0: f.Start, T1: f.Start + (f.End-f.Start)/10, RankLo: 0, RankHi: -1}
		body, _, err := renderTile(nil, &Trace{ID: "fullspan", File: f}, tileParams{win: win, format: row.format})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(row.name, func(b *testing.B) {
			var e gzEncoder
			var out []byte
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out = gzipOf(&e, out[:0], body)
			}
			b.ReportMetric(float64(len(out))/float64(len(body)), "ratio")
		})
	}
}
