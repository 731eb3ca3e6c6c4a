package jpeglite

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestSyntheticDeterministic(t *testing.T) {
	a := Synthetic(64, 48, 7)
	b := Synthetic(64, 48, 7)
	c := Synthetic(64, 48, 8)
	if string(a.Pix) != string(b.Pix) {
		t.Fatal("same seed produced different images")
	}
	if string(a.Pix) == string(c.Pix) {
		t.Fatal("different seeds produced identical images")
	}
	if a.W != 64 || a.H != 48 || len(a.Pix) != 64*48 {
		t.Fatalf("dims %dx%d len %d", a.W, a.H, len(a.Pix))
	}
}

func TestEncodeDecodeQuality(t *testing.T) {
	im := Synthetic(128, 96, 3)
	for _, quality := range []int{20, 50, 85} {
		data := Encode(im, quality)
		if len(data) == 0 {
			t.Fatalf("q=%d: empty encoding", quality)
		}
		back, err := Decode(data)
		if err != nil {
			t.Fatalf("q=%d: %v", quality, err)
		}
		if back.W != im.W || back.H != im.H {
			t.Fatalf("q=%d: dims %dx%d", quality, back.W, back.H)
		}
		psnr, err := PSNR(im, back)
		if err != nil {
			t.Fatal(err)
		}
		if psnr < 24 {
			t.Errorf("q=%d: PSNR %.1f dB too low for a working codec", quality, psnr)
		}
	}
}

func TestHigherQualityHigherFidelityAndSize(t *testing.T) {
	im := Synthetic(128, 128, 11)
	lo := Encode(im, 10)
	hi := Encode(im, 90)
	if len(hi) <= len(lo) {
		t.Errorf("q90 (%d bytes) not larger than q10 (%d bytes)", len(hi), len(lo))
	}
	dlo, err := Decode(lo)
	if err != nil {
		t.Fatal(err)
	}
	dhi, err := Decode(hi)
	if err != nil {
		t.Fatal(err)
	}
	plo, _ := PSNR(im, dlo)
	phi, _ := PSNR(im, dhi)
	if phi <= plo {
		t.Errorf("PSNR q90 %.1f <= q10 %.1f", phi, plo)
	}
}

func TestCompressionActuallyCompresses(t *testing.T) {
	im := Synthetic(256, 256, 5)
	data := Encode(im, 50)
	if len(data) >= len(im.Pix) {
		t.Errorf("encoded %d bytes >= raw %d bytes", len(data), len(im.Pix))
	}
}

func TestNonMultipleOf8Dimensions(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {7, 13}, {65, 9}, {100, 101}} {
		im := Synthetic(dims[0], dims[1], 2)
		back, err := Decode(Encode(im, 70))
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		if back.W != dims[0] || back.H != dims[1] {
			t.Fatalf("%v: got %dx%d", dims, back.W, back.H)
		}
	}
}

func TestFlatImageRoundtripsExactly(t *testing.T) {
	im := NewImage(32, 32)
	for i := range im.Pix {
		im.Pix[i] = 128
	}
	back, err := Decode(Encode(im, 50))
	if err != nil {
		t.Fatal(err)
	}
	psnr, _ := PSNR(im, back)
	if !math.IsInf(psnr, 1) && psnr < 45 {
		t.Errorf("flat image PSNR %.1f", psnr)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("JP"),
		[]byte("NOPE12345678901234"),
		append([]byte("JPLT"), make([]byte, 10)...), // 0x0 dims
	}
	for _, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("Decode(%q...) succeeded", c)
		}
	}
	// Truncations of a valid stream must error, not panic.
	full := Encode(Synthetic(24, 24, 1), 50)
	for cut := 14; cut < len(full)-1; cut += 11 {
		if _, err := Decode(full[:cut]); err == nil {
			t.Errorf("truncated decode at %d succeeded", cut)
		}
	}
}

func TestCropCenter(t *testing.T) {
	im := Synthetic(100, 100, 4)
	c := im.CropCenter(0.32)
	wantSide := int(100 * math.Sqrt(0.32))
	if c.W != wantSide || c.H != wantSide {
		t.Fatalf("crop dims %dx%d, want %dx%d", c.W, c.H, wantSide, wantSide)
	}
	// Center pixel preserved.
	if c.At(c.W/2, c.H/2) != im.At(50-(c.W/2-c.W/2), 50) && false {
		t.Fatal("unreachable")
	}
	off := (100 - wantSide) / 2
	if c.At(0, 0) != im.At(off, off) {
		t.Fatal("crop not centred")
	}
	// Degenerate fractions clamp to the full image.
	if full := im.CropCenter(0); full.W != 100 || full.H != 100 {
		t.Fatal("fraction 0 did not clamp")
	}
}

func TestDownsample(t *testing.T) {
	im := Synthetic(90, 60, 9)
	d := im.Downsample(3)
	if d.W != 30 || d.H != 20 {
		t.Fatalf("downsample dims %dx%d", d.W, d.H)
	}
	if d.At(1, 1) != im.At(3, 3) {
		t.Fatal("downsample picked wrong pixels")
	}
	if k1 := im.Downsample(1); k1.W != im.W || k1.At(5, 5) != im.At(5, 5) {
		t.Fatal("k=1 should be identity")
	}
	if k0 := im.Downsample(0); k0.W != im.W {
		t.Fatal("k=0 should clamp to identity")
	}
}

func TestPSNRSizeMismatch(t *testing.T) {
	if _, err := PSNR(NewImage(2, 2), NewImage(3, 3)); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

// Property: DCT/IDCT roundtrip reproduces arbitrary 8-vectors.
func TestDCTRoundtripProperty(t *testing.T) {
	f := func(raw [8]int8) bool {
		var v [8]float64
		for i, x := range raw {
			v[i] = float64(x)
		}
		orig := v
		dct8(&v)
		idct8(&v)
		for i := range v {
			if math.Abs(v[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: varint zigzag roundtrips all int32 values.
func TestVarintProperty(t *testing.T) {
	f := func(v int32) bool {
		b := appendVarint(nil, v)
		got, n, err := readVarint(b)
		return err == nil && n == len(b) && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: random small images decode to the original dimensions at
// reasonable fidelity.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(seed int64, wRaw, hRaw uint8) bool {
		w := int(wRaw%64) + 8
		h := int(hRaw%64) + 8
		im := Synthetic(w, h, seed)
		back, err := Decode(Encode(im, 75))
		if err != nil {
			return false
		}
		psnr, err := PSNR(im, back)
		return err == nil && (psnr > 20 || math.IsInf(psnr, 1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// PSNR computes peak signal-to-noise ratio between two same-size images,
// in dB; +Inf for identical images.
func PSNR(a, b *Image) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("jpeglite: size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	var mse float64
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		mse += d * d
	}
	mse /= float64(len(a.Pix))
	if mse == 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(255*255/mse), nil
}
