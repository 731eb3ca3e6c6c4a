// Package jpeglite is a small, self-contained lossy image codec standing
// in for libjpeg in the paper's thumbnail demonstration application. It
// follows the JPEG recipe — 8×8 block DCT, quantisation, zigzag ordering,
// run-length coding — on 8-bit grayscale images, giving the pipeline's
// decompressor and compressor stages genuinely CPU-bound work so the
// visual log shows long gray Compute states with narrow red/green I/O,
// exactly the shape of the paper's Figs. 1–2.
//
// The format is not JPEG-compatible; it only needs to be real work with
// real compression behaviour.
package jpeglite

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Image is an 8-bit grayscale image in row-major order.
type Image struct {
	W, H int
	Pix  []byte // len == W*H
}

// NewImage allocates a black W×H image.
func NewImage(w, h int) *Image {
	return &Image{W: w, H: h, Pix: make([]byte, w*h)}
}

// At returns the pixel at (x, y).
func (im *Image) At(x, y int) byte { return im.Pix[y*im.W+x] }

// Set writes the pixel at (x, y).
func (im *Image) Set(x, y int, v byte) { im.Pix[y*im.W+x] = v }

// synthStack bounds the column and diagonal terms Synthetic keeps on the
// stack (w + (w+h) of them: 512 at the demo's 192×128); a larger image
// takes them from the heap.
const synthStack = 1024

// Synthetic generates a deterministic test image: a gradient plus
// sinusoidal texture plus hash noise, varied by seed so every "photo" in a
// batch differs.
func Synthetic(w, h int, seed int64) *Image {
	im := NewImage(w, h)
	fs := float64(seed%97) + 3
	// Each texture term depends on x, y or x+y alone, so it is computed
	// once a column (sx), once a row (cy) and once a diagonal d = x+y (sd)
	// and added per pixel in the order a per-pixel evaluation adds it.
	// Every product is rounded where it is made (float64(...)), so no
	// GOARCH fuses it into the sum that follows.
	var stack [synthStack]float64
	terms := stack[:]
	if n := w + w + h; n > len(terms) {
		terms = make([]float64, n)
	}
	sx, sd := terms[:w], terms[w:w+w+h]
	for x := range sx {
		sx[x] = float64(60 * math.Sin(float64(x)/fs))
	}
	for d := range sd {
		sd[d] = float64(40 * math.Sin(float64(d)/23))
	}
	for y := 0; y < h; y++ {
		cy := float64(50 * math.Cos(float64(y)/(fs*0.7)))
		row, diag := im.Pix[y*w:(y+1)*w], sd[y:y+w]
		for x := range row {
			g := 128 + sx[x] + cy
			g += diag[x]
			n := hash2(uint64(x)+uint64(seed)<<20, uint64(y)) % 17
			v := g + float64(n) - 8
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			row[x] = byte(v)
		}
	}
	return im
}

func hash2(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ b*0xc2b2ae3d27d4eb4f
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return x
}

// CropCenter returns the centred sub-image containing the given fraction
// of the original pixel area (the thumbnail app crops "the center 32% of
// the pixel array").
func (im *Image) CropCenter(areaFrac float64) *Image {
	if areaFrac <= 0 || areaFrac > 1 {
		areaFrac = 1
	}
	scale := math.Sqrt(areaFrac)
	cw := int(float64(im.W) * scale)
	ch := int(float64(im.H) * scale)
	if cw < 1 {
		cw = 1
	}
	if ch < 1 {
		ch = 1
	}
	x0 := (im.W - cw) / 2
	y0 := (im.H - ch) / 2
	out := NewImage(cw, ch)
	for y := 0; y < ch; y++ {
		copy(out.Pix[y*cw:(y+1)*cw], im.Pix[(y0+y)*im.W+x0:(y0+y)*im.W+x0+cw])
	}
	return out
}

// Downsample keeps every k-th pixel in both dimensions.
func (im *Image) Downsample(k int) *Image {
	if k < 1 {
		k = 1
	}
	ow := (im.W + k - 1) / k
	oh := (im.H + k - 1) / k
	out := NewImage(ow, oh)
	for y := 0; y < oh; y++ {
		for x := 0; x < ow; x++ {
			out.Set(x, y, im.At(x*k, y*k))
		}
	}
	return out
}

// baseQuant is the luminance quantisation matrix from the JPEG standard.
var baseQuant = [64]int{
	16, 11, 10, 16, 24, 40, 51, 61,
	12, 12, 14, 19, 26, 58, 60, 55,
	14, 13, 16, 24, 40, 57, 69, 56,
	14, 17, 22, 29, 51, 87, 80, 62,
	18, 22, 37, 56, 68, 109, 103, 77,
	24, 35, 55, 64, 81, 104, 113, 92,
	49, 64, 78, 87, 103, 121, 120, 101,
	72, 92, 95, 98, 112, 100, 103, 99,
}

// zigzag maps coefficient order to block position.
var zigzag = [64]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// quantTable scales the base matrix by quality (1..100, JPEG convention).
func quantTable(quality int) [64]int {
	if quality < 1 {
		quality = 1
	}
	if quality > 100 {
		quality = 100
	}
	var scale int
	if quality < 50 {
		scale = 5000 / quality
	} else {
		scale = 200 - quality*2
	}
	var q [64]int
	for i, b := range baseQuant {
		v := (b*scale + 50) / 100
		if v < 1 {
			v = 1
		}
		if v > 255 {
			v = 255
		}
		q[i] = v
	}
	return q
}

// The two 1-D transforms compute their defining sums term by term, each
// product rounded where it is made (float64(a*b): an explicit conversion
// forbids fusing it into the add that follows, so the results are the
// same on every GOARCH) and added in ascending index order.

// dctCos[k][n] = cos((2n+1)kπ/16): row k is the basis vector of frequency
// k, so both transforms read it contiguously.
var dctCos = func() [8][8]float64 {
	var t [8][8]float64
	for k := range t {
		for n := range t[k] {
			t[k][n] = math.Cos((2*float64(n) + 1) * float64(k) * math.Pi / 16)
		}
	}
	return t
}()

// dctScale is the DCT-II's normalisation of coefficient k.
var dctScale = [8]float64{1 / (2 * math.Sqrt2), 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}

// idctDC is the weight of the DC term in the inverse transform; the other
// terms weigh 1.
const idctDC = 1 / math.Sqrt2

// dct8 computes a 1-D 8-point DCT-II in place.
func dct8(v *[8]float64) {
	x0, x1, x2, x3, x4, x5, x6, x7 := v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]
	for k := range v {
		t := &dctCos[k]
		var sum float64
		sum += float64(x0 * t[0])
		sum += float64(x1 * t[1])
		sum += float64(x2 * t[2])
		sum += float64(x3 * t[3])
		sum += float64(x4 * t[4])
		sum += float64(x5 * t[5])
		sum += float64(x6 * t[6])
		sum += float64(x7 * t[7])
		v[k] = float64(sum * dctScale[k])
	}
}

// idct8 computes the inverse 1-D 8-point DCT in place. A zero coefficient
// is skipped, as libjpeg's jidctint skips zero AC terms: its products are
// ±0, and adding ±0 to a sum that starts at +0 (and so is never −0)
// changes nothing. An all-zero vector comes back +0 everywhere.
func idct8(v *[8]float64) {
	var o0, o1, o2, o3, o4, o5, o6, o7 float64
	for k, c := range v {
		if c == 0 {
			continue
		}
		if k == 0 {
			c = float64(c * idctDC)
		}
		t := &dctCos[k]
		o0 += float64(c * t[0])
		o1 += float64(c * t[1])
		o2 += float64(c * t[2])
		o3 += float64(c * t[3])
		o4 += float64(c * t[4])
		o5 += float64(c * t[5])
		o6 += float64(c * t[6])
		o7 += float64(c * t[7])
	}
	*v = [8]float64{o0 / 2, o1 / 2, o2 / 2, o3 / 2, o4 / 2, o5 / 2, o6 / 2, o7 / 2}
}

const magic = "JPLT"

// Encode compresses im at the given quality (1–100).
func Encode(im *Image, quality int) []byte {
	q := quantTable(quality)
	var qf [64]float64
	for i, d := range q {
		qf[i] = float64(d)
	}
	bw := (im.W + 7) / 8
	bh := (im.H + 7) / 8

	out := make([]byte, 0, im.W*im.H/4+16)
	out = append(out, magic...)
	var hdr [10]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(im.W))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(im.H))
	binary.LittleEndian.PutUint16(hdr[8:], uint16(quality))
	out = append(out, hdr[:]...)

	// block holds rows; cols holds the row-transformed block transposed,
	// a column to an array, for the column pass and the quantiser.
	var block, cols [8][8]float64
	var coeffs [64]int32
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			// Load block with edge replication, level-shifted by -128.
			for y := range block {
				sy := min(by*8+y, im.H-1)
				row := im.Pix[sy*im.W : (sy+1)*im.W]
				for x := range block[y] {
					block[y][x] = float64(row[min(bx*8+x, im.W-1)]) - 128
				}
			}
			// 2-D DCT: rows then columns.
			for y := range block {
				dct8(&block[y])
				for x, c := range block[y] {
					cols[x][y] = c
				}
			}
			for x := range cols {
				dct8(&cols[x])
			}
			// Quantise in zigzag order.
			for i, pos := range zigzag {
				coeffs[i] = int32(math.Round(cols[pos%8][pos/8] / qf[pos]))
			}
			out = appendRLE(out, coeffs[:])
		}
	}
	return out
}

// appendRLE writes 64 coefficients as (zero-run, value) pairs with a
// 0xFF end-of-block marker; values are zigzag varints.
func appendRLE(out []byte, coeffs []int32) []byte {
	run := 0
	for _, c := range coeffs {
		if c == 0 {
			run++
			continue
		}
		for run > 62 {
			out = append(out, 62)
			out = appendVarint(out, 0)
			run -= 63
		}
		out = append(out, byte(run))
		out = appendVarint(out, c)
		run = 0
	}
	return append(out, 0xFF)
}

func appendVarint(out []byte, v int32) []byte {
	u := uint32(v<<1) ^ uint32(v>>31) // zigzag-encode the sign
	for u >= 0x80 {
		out = append(out, byte(u)|0x80)
		u >>= 7
	}
	return append(out, byte(u))
}

// Decode decompresses data produced by Encode.
func Decode(data []byte) (*Image, error) {
	if len(data) < len(magic)+10 || string(data[:4]) != magic {
		return nil, fmt.Errorf("jpeglite: bad magic")
	}
	w := int(binary.LittleEndian.Uint32(data[4:]))
	h := int(binary.LittleEndian.Uint32(data[8:]))
	quality := int(binary.LittleEndian.Uint16(data[12:]))
	if w <= 0 || h <= 0 || w > 1<<16 || h > 1<<16 {
		return nil, fmt.Errorf("jpeglite: implausible dimensions %dx%d", w, h)
	}
	bw := (w + 7) / 8
	bh := (h + 7) / 8
	pos := 14
	// Every block ends with its own 0xFF marker: a stream shorter than one
	// byte a block is refused before its image is allocated.
	if len(data)-pos < bw*bh {
		return nil, fmt.Errorf("jpeglite: truncated block stream: %d bytes for %d blocks", len(data)-pos, bw*bh)
	}
	q := quantTable(quality)
	im := NewImage(w, h)

	// cols holds the dequantised block transposed, a column to an array,
	// for the column pass; the row pass gathers each row of its result.
	var cols [8][8]float64
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			cols = [8][8]float64{}
			idx := 0
			for {
				if pos >= len(data) {
					return nil, fmt.Errorf("jpeglite: truncated block stream")
				}
				marker := data[pos]
				pos++
				if marker == 0xFF {
					break
				}
				idx += int(marker)
				v, n, err := readVarint(data[pos:])
				if err != nil {
					return nil, err
				}
				pos += n
				if idx >= 64 {
					return nil, fmt.Errorf("jpeglite: coefficient index %d out of block", idx)
				}
				// Dequantise out of zigzag order.
				if v != 0 {
					p := zigzag[idx]
					cols[p%8][p/8] = float64(v) * float64(q[p])
				}
				idx++
			}
			// Inverse 2-D DCT: columns then rows.
			for x := range cols {
				idct8(&cols[x])
			}
			for y := 0; y < 8 && by*8+y < h; y++ {
				var row [8]float64
				for x := range row {
					row[x] = cols[x][y]
				}
				idct8(&row)
				pix := im.Pix[(by*8+y)*w+bx*8:]
				for x := 0; x < 8 && bx*8+x < w; x++ {
					pix[x] = pixel(row[x] + 128)
				}
			}
		}
	}
	return im, nil
}

// pixel is math.Round(s) clamped to [0, 255], as a byte. Inside the
// range, Round rounds half away from zero: the integer part of s, plus
// one when the fraction is at least a half. s−floor(s) is exact for
// s ≥ 0.5 (Sterbenz), so no rounding of that subtraction can move it.
func pixel(s float64) byte {
	switch {
	case s < 0.5:
		return 0
	case s >= 254.5:
		return 255
	}
	i := int(s)
	if s-float64(i) >= 0.5 {
		i++
	}
	return byte(i)
}

func readVarint(b []byte) (int32, int, error) {
	var u uint32
	var shift uint
	for i := 0; i < len(b) && i < 5; i++ {
		u |= uint32(b[i]&0x7F) << shift
		if b[i] < 0x80 {
			v := int32(u>>1) ^ -int32(u&1) // undo zigzag
			return v, i + 1, nil
		}
		shift += 7
	}
	return 0, 0, fmt.Errorf("jpeglite: truncated varint")
}
