package slog2

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadSLOG2 hammers the SLOG-2 decoder with mutated inputs, seeded
// from the three golden traces. Read may reject (the usual outcome for
// mutations) but must never panic; anything it accepts must then be
// safe for every consumer path — Query, All, Depth and re-encoding —
// because pilot-serve runs exactly those over files it did not write.
func FuzzReadSLOG2(f *testing.F) {
	for _, name := range []string{"lab2", "thumbnail", "collisions"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", name+".slog2"))
		if err != nil {
			f.Fatalf("golden seed: %v", err)
		}
		f.Add(data)
	}
	f.Add([]byte(Magic))
	f.Add([]byte(Magic + "\x01\x00\x00\x00"))
	// A whole file, then one byte more.
	var whole bytes.Buffer
	if err := Write(&whole, &File{Root: &Frame{}}); err != nil {
		f.Fatal(err)
	}
	f.Add(append(whole.Bytes(), 0xff))
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
		if _, rerr := Read(&buf); rerr != nil {
			t.Fatalf("re-encoded file does not parse: %v", rerr)
		}
	})
}
