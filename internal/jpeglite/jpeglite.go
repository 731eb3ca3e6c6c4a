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

// Synthetic generates a deterministic test image: a gradient plus
// sinusoidal texture plus hash noise, varied by seed so every "photo" in a
// batch differs.
func Synthetic(w, h int, seed int64) *Image {
	im := NewImage(w, h)
	fs := float64(seed%97) + 3
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			g := 128 + 60*math.Sin(float64(x)/fs) + 50*math.Cos(float64(y)/(fs*0.7))
			g += 40 * math.Sin(float64(x+y)/23)
			n := hash2(uint64(x)+uint64(seed)<<20, uint64(y)) % 17
			v := g + float64(n) - 8
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			im.Set(x, y, byte(v))
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

// dct8 computes a 1-D 8-point DCT-II in place.
func dct8(v *[8]float64) {
	var out [8]float64
	for k := 0; k < 8; k++ {
		var sum float64
		for n := 0; n < 8; n++ {
			sum += v[n] * cosTable[n][k]
		}
		c := 0.5
		if k == 0 {
			c = 1 / (2 * math.Sqrt2)
		}
		out[k] = sum * c
	}
	*v = out
}

// idct8 computes the inverse 1-D 8-point DCT in place.
func idct8(v *[8]float64) {
	var out [8]float64
	for n := 0; n < 8; n++ {
		var sum float64
		for k := 0; k < 8; k++ {
			c := 1.0
			if k == 0 {
				c = 1 / math.Sqrt2
			}
			sum += c * v[k] * cosTable[n][k]
		}
		out[n] = sum / 2
	}
	*v = out
}

var cosTable = func() [8][8]float64 {
	var t [8][8]float64
	for n := 0; n < 8; n++ {
		for k := 0; k < 8; k++ {
			t[n][k] = math.Cos((2*float64(n) + 1) * float64(k) * math.Pi / 16)
		}
	}
	return t
}()

const magic = "JPLT"

// Encode compresses im at the given quality (1–100).
func Encode(im *Image, quality int) []byte {
	q := quantTable(quality)
	bw := (im.W + 7) / 8
	bh := (im.H + 7) / 8

	out := make([]byte, 0, im.W*im.H/4+16)
	out = append(out, magic...)
	var hdr [10]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(im.W))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(im.H))
	binary.LittleEndian.PutUint16(hdr[8:], uint16(quality))
	out = append(out, hdr[:]...)

	var block [8][8]float64
	coeffs := make([]int32, 0, 64)
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			// Load block with edge replication, level-shifted by -128.
			for y := 0; y < 8; y++ {
				sy := by*8 + y
				if sy >= im.H {
					sy = im.H - 1
				}
				for x := 0; x < 8; x++ {
					sx := bx*8 + x
					if sx >= im.W {
						sx = im.W - 1
					}
					block[y][x] = float64(im.At(sx, sy)) - 128
				}
			}
			// 2-D DCT: rows then columns.
			for y := 0; y < 8; y++ {
				dct8(&block[y])
			}
			for x := 0; x < 8; x++ {
				var col [8]float64
				for y := 0; y < 8; y++ {
					col[y] = block[y][x]
				}
				dct8(&col)
				for y := 0; y < 8; y++ {
					block[y][x] = col[y]
				}
			}
			// Quantise in zigzag order.
			coeffs = coeffs[:0]
			for i := 0; i < 64; i++ {
				pos := zigzag[i]
				c := block[pos/8][pos%8] / float64(q[pos])
				coeffs = append(coeffs, int32(math.Round(c)))
			}
			out = appendRLE(out, coeffs)
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
	q := quantTable(quality)
	im := NewImage(w, h)
	bw := (w + 7) / 8
	bh := (h + 7) / 8
	pos := 14

	coeffs := make([]int32, 64)
	var block [8][8]float64
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			for i := range coeffs {
				coeffs[i] = 0
			}
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
				coeffs[idx] = v
				idx++
			}
			// Dequantise out of zigzag order.
			for y := range block {
				for x := range block[y] {
					block[y][x] = 0
				}
			}
			for i := 0; i < 64; i++ {
				if coeffs[i] == 0 {
					continue
				}
				p := zigzag[i]
				block[p/8][p%8] = float64(coeffs[i]) * float64(q[p])
			}
			// Inverse 2-D DCT: columns then rows.
			for x := 0; x < 8; x++ {
				var col [8]float64
				for y := 0; y < 8; y++ {
					col[y] = block[y][x]
				}
				idct8(&col)
				for y := 0; y < 8; y++ {
					block[y][x] = col[y]
				}
			}
			for y := 0; y < 8; y++ {
				idct8(&block[y])
			}
			for y := 0; y < 8; y++ {
				sy := by*8 + y
				if sy >= h {
					continue
				}
				for x := 0; x < 8; x++ {
					sx := bx*8 + x
					if sx >= w {
						continue
					}
					v := math.Round(block[y][x] + 128)
					if v < 0 {
						v = 0
					}
					if v > 255 {
						v = 255
					}
					im.Set(sx, sy, byte(v))
				}
			}
		}
	}
	return im, nil
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
