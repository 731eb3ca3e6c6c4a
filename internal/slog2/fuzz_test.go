package slog2

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// FuzzReadSLOG2 hammers the SLOG-2 decoder with mutated inputs, seeded
// from the three golden traces. Read may reject (the usual outcome for
// mutations) but must never panic; anything it accepts must then be
// safe for every consumer path — Query, All, Depth and re-encoding —
// because pilot-serve runs exactly those over files it did not write,
// and must be the one encoding of what it decodes to: Write gives the
// accepted bytes back. Every drawable it accepts has a finite time inside
// its frame.
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
	// A drawable with a NaN time, and one outside its frame: both refused.
	for _, mutate := range []func(*File){
		func(sf *File) { sf.Root.States[0].Start = math.NaN() },
		func(sf *File) { sf.Root.Events[0].Time = sf.Root.End + 1 },
	} {
		sf := synthFile(64)
		mutate(sf)
		var b bytes.Buffer
		if err := Write(&b, sf); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
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
		if err := placed(sf); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if werr := Write(&buf, sf); werr != nil {
			t.Fatalf("re-encoding a parsed file failed: %v", werr)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("Write(Read(x)) != x: %d bytes in, %d out", len(data), buf.Len())
		}
	})
}

// placed checks what Read promises of every drawable it accepts: a finite
// time, inside its frame.
func placed(f *File) error {
	var err error
	f.Walk(func(fr *Frame) {
		check := func(what string, lo, hi float64) {
			finite := lo-lo == 0 && hi-hi == 0 // NaN and ±Inf give NaN
			if err == nil && (!finite || escapes(lo, hi, fr)) {
				err = fmt.Errorf("Read accepted a %s at [%v,%v] in frame [%v,%v]", what, lo, hi, fr.Start, fr.End)
			}
		}
		for _, s := range fr.States {
			check("state", s.Start, s.End)
		}
		for _, a := range fr.Arrows {
			check("arrow", min(a.Start, a.End), max(a.Start, a.End))
		}
		for _, e := range fr.Events {
			check("event", e.Time, e.Time)
		}
	})
	return err
}
