package jpeglite

import (
	"encoding/binary"
	"runtime"
	"testing"
)

// FuzzDecode feeds Decode arbitrary bytes. It must never panic; a stream
// it accepts decodes to the dimensions its header names; and what it
// allocates is bounded by the input, not by the header: each block costs
// at least its 0xFF marker and covers at most 64 pixels, so a stream is
// refused before an image larger than 64 bytes of pixels per input byte
// is made.
func FuzzDecode(f *testing.F) {
	for _, c := range []struct{ w, h, quality int }{
		{1, 1, 50}, {8, 8, 75}, {24, 24, 10}, {33, 17, 95}, {64, 48, 70},
	} {
		f.Add(Encode(Synthetic(c.w, c.h, int64(c.w)), c.quality))
	}
	f.Add([]byte(nil))
	f.Add([]byte("JP"))
	f.Add([]byte("NOPE12345678901234"))
	f.Add(append([]byte("JPLT"), make([]byte, 10)...)) // 0x0
	huge := append([]byte("JPLT"), make([]byte, 10)...)
	binary.LittleEndian.PutUint32(huge[4:], 1<<16)
	binary.LittleEndian.PutUint32(huge[8:], 1<<16)
	f.Add(huge)
	full := Encode(Synthetic(24, 24, 1), 50)
	f.Add(full[:len(full)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		im, err := Decode(data)
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(data))+64<<10; got > bound {
			t.Fatalf("Decode of %d bytes allocated %d, more than %d", len(data), got, bound)
		}
		if err != nil {
			return
		}
		w := int(binary.LittleEndian.Uint32(data[4:]))
		h := int(binary.LittleEndian.Uint32(data[8:]))
		if im.W != w || im.H != h || len(im.Pix) != w*h {
			t.Fatalf("header says %dx%d, decoded %dx%d with %d pixels", w, h, im.W, im.H, len(im.Pix))
		}
	})
}
