package slog2

import (
	"bytes"
	"testing"
)

// FuzzReadSLOG2 hammers the SLOG-2 decoder with mutated inputs, seeded
// from the three golden traces. Read may reject (the usual outcome for
// mutations) but must never panic; anything it accepts must then be
// safe for every consumer path — Query, All, Depth and re-encoding —
// because pilot-serve runs exactly those over files it did not write,
// and must be the one encoding of what it decodes to: Write gives the
// accepted bytes back.
func FuzzReadSLOG2(f *testing.F) {
	for _, name := range []string{"lab2", "thumbnail", "collisions"} {
		f.Add(golden(f, name))
	}
	f.Add([]byte(Magic))
	f.Add([]byte(Magic + "\x01\x00\x00\x00"))
	// A whole file, then one byte more.
	var whole bytes.Buffer
	if err := Write(&whole, &File{Root: &Frame{}}); err != nil {
		f.Fatal(err)
	}
	f.Add(append(whole.Bytes(), 0xff))
	// The goldens are one frame each: a tree of fifteen.
	var tree bytes.Buffer
	if err := Write(&tree, synthFile(700)); err != nil {
		f.Fatal(err)
	}
	f.Add(tree.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		states, arrows, events := sf.All()
		span := sf.End - sf.Start
		for _, w := range []struct{ a, b float64 }{
			{sf.Start, sf.End},
			{sf.Start + span/4, sf.End - span/4},
			{sf.End, sf.Start}, // inverted window
		} {
			qs, qa, qe := sf.Query(w.a, w.b)
			if len(qs) > len(states) || len(qa) > len(arrows) || len(qe) > len(events) {
				t.Fatalf("Query returned more drawables than All")
			}
		}
		_ = sf.Depth()
		var buf bytes.Buffer
		if werr := Write(&buf, sf); werr != nil {
			t.Fatalf("re-encoding a parsed file failed: %v", werr)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("Write(Read(x)) != x: %d bytes in, %d out", len(data), buf.Len())
		}
	})
}
