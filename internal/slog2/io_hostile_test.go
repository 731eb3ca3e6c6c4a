package slog2

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/clog2"
)

// smallFile builds a tiny valid File via the converter, as a base for
// corruption.
func smallFile(t *testing.T) *File {
	t.Helper()
	b := newCLOG(2)
	b.defState(1, "PI_Write", "green")
	b.defEvent(1, "MsgArrival", "yellow")
	b.state(0, 1, 1.0, 2.0, "line: 1")
	b.event(1, 1, 1.5, "chan: C1")
	b.send(0, 1, 3, 1.1, 16)
	b.recv(1, 0, 3, 1.6, 16)
	f, _, err := convert(b.log(t), ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// reread serialises f and parses it back, returning the decode error.
func reread(f *File) error {
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	_, err := Read(&buf)
	return err
}

// The encoder writes whatever indices the in-memory File carries, so
// mutating a valid file before Write crafts exactly the hostile inputs
// the decoder must reject: out-of-range categories and ranks used to
// flow through Read and panic jumpshot.Search / legend / stats.
func TestReadRejectsOutOfRangeIndices(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(f *File)
	}{
		{"state cat too big", func(f *File) { f.Root.States[0].Cat = len(f.Categories) }},
		{"state cat negative", func(f *File) { f.Root.States[0].Cat = -1 }},
		{"state rank negative", func(f *File) { f.Root.States[0].Rank = -2 }},
		{"state rank too big", func(f *File) { f.Root.States[0].Rank = f.NumRanks }},
		{"event cat too big", func(f *File) { f.Root.Events[0].Cat = len(f.Categories) + 7 }},
		{"event rank negative", func(f *File) { f.Root.Events[0].Rank = -1 }},
		{"arrow src rank too big", func(f *File) { f.Root.Arrows[0].SrcRank = f.NumRanks + 3 }},
		{"arrow dst rank negative", func(f *File) { f.Root.Arrows[0].DstRank = -5 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := smallFile(t)
			if len(f.Root.States) == 0 || len(f.Root.Events) == 0 || len(f.Root.Arrows) == 0 {
				t.Fatal("fixture lost drawables")
			}
			c.mutate(f)
			if err := reread(f); err == nil {
				t.Fatal("hostile file parsed cleanly")
			}
		})
	}
	// Control: the unmutated fixture still round-trips.
	if err := reread(smallFile(t)); err != nil {
		t.Fatalf("control roundtrip failed: %v", err)
	}
}

// A drawable Read cannot place is refused by name: a NaN or infinite
// time has no place in time order, and a drawable outside its frame would
// be missed by every window that Frames prunes the frame from.
func TestReadRejectsUnplaceableDrawables(t *testing.T) {
	cases := []struct {
		name, want string
		mutate     func(f *File)
	}{
		{"state start NaN", "state time [NaN,", func(f *File) { f.Root.States[0].Start = math.NaN() }},
		{"state end +Inf", "not finite", func(f *File) { f.Root.States[0].End = math.Inf(1) }},
		{"arrow end NaN", "arrow time", func(f *File) { f.Root.Arrows[0].End = math.NaN() }},
		{"event at -Inf", "event time [-Inf,-Inf] is not finite", func(f *File) { f.Root.Events[0].Time = math.Inf(-1) }},
		{"state past its frame", "state [1,3] escapes frame [1,2]", func(f *File) { f.Root.States[0].End = 3 }},
		{"arrow before its frame", "arrow [0.5,1.6] escapes frame", func(f *File) { f.Root.Arrows[0].Start = 0.5 }},
		{"event past its frame", "event [2.5,2.5] escapes frame", func(f *File) { f.Root.Events[0].Time = 2.5 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := smallFile(t)
			if f.Root.Start != 1 || f.Root.End != 2 {
				t.Fatalf("fixture's frame is [%v,%v], the cases expect [1,2]", f.Root.Start, f.Root.End)
			}
			c.mutate(f)
			if err := reread(f); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one naming %q", err, c.want)
			}
		})
	}
	// Control: a drawable on its frame's bounds, within the nanosecond
	// CheckInvariants allows, still reads.
	f := smallFile(t)
	f.Root.States[0].End = 2 + 1e-10
	if err := reread(f); err != nil {
		t.Fatalf("state on its frame's end: %v", err)
	}
}

// A file that decodes to its root frame and then goes on is a
// half-overwritten or concatenated one: Read used to serve it as clean.
// A file of the previous version is refused at the magic with the
// command that rebuilds it.
func TestReadRefusesTrailingBytesAndPreviousVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, smallFile(t)); err != nil {
		t.Fatal(err)
	}
	small := buf.Bytes()
	lab2 := golden(t, "lab2")
	oldSeed, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzReadSLOG2", "7126b1c645bb9e82"))
	if err != nil {
		t.Fatal(err)
	}
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	// One encoding per file: a byte the writer never emits, where the
	// reader once took any non-zero marker as 1 and any byte as a kind.
	patch := func(at int, b byte) []byte {
		data := bytes.Clone(small)
		data[at] = b
		return data
	}
	firstKind := len(Magic) + 4 + 8 + 8 + 4
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"garbage appended", join(lab2, []byte("garbage")), "trailing bytes"},
		{"one absent-frame byte appended", join(small, []byte{0}), "trailing bytes"},
		{"two files concatenated", join(small, lab2), "trailing bytes"},
		{"the same file twice", join(lab2, lab2), "trailing bytes"},
		{"absent-frame marker that is not 0", patch(len(small)-1, 2), "frame marker 2"},
		{"category kind past KindEvent", patch(firstKind, byte(KindEvent)+1), "category kind 2"},
		{"previous version", join([]byte(previousMagic), small[len(Magic):]), "clog2slog"},
		{"previous version, committed fuzz seed", oldSeed[bytes.Index(oldSeed, []byte(previousMagic)):], "clog2slog"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Read(bytes.NewReader(c.data))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one naming %q", err, c.want)
			}
		})
	}
	// Control: the clean files decode, and encode back to the same bytes.
	clean := map[string][]byte{"small": small, "lab2": lab2, "thumbnail": golden(t, "thumbnail"), "collisions": golden(t, "collisions")}
	for name, data := range clean {
		f, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("control %s: %v", name, err)
		}
		var back bytes.Buffer
		if err := Write(&back, f); err != nil || !bytes.Equal(back.Bytes(), data) {
			t.Errorf("control %s: Write(Read(x)) != x (err %v)", name, err)
		}
	}
}

// A crafted left-spine chain of frames must be rejected before it can
// exhaust the stack; a plausibly deep (but bounded) tree still parses.
func TestReadRejectsExcessiveFrameDepth(t *testing.T) {
	chain := func(depth int) *File {
		f := &File{NumRanks: 1, Start: 0, End: 1,
			Categories: []Category{{Name: "S", Color: "red"}}}
		root := &Frame{Start: 0, End: 1}
		cur := root
		for i := 0; i < depth; i++ {
			next := &Frame{Start: 0, End: 1}
			cur.Left = next
			cur = next
		}
		f.Root = root
		return f
	}
	if err := reread(chain(maxFrameDepth - 1)); err != nil {
		t.Fatalf("depth %d rejected: %v", maxFrameDepth-1, err)
	}
	err := reread(chain(maxFrameDepth + 10))
	if err == nil {
		t.Fatal("left-spine chain parsed cleanly")
	}
	if !strings.Contains(err.Error(), "deeper than") {
		t.Fatalf("wrong error: %v", err)
	}
}

// encoder.str sliced at MaxUint16 bytes mid-rune, emitting invalid
// UTF-8 into cargo. The boundary cut must drop a straddling rune whole.
func TestEncoderStrRuneSafeAtBoundary(t *testing.T) {
	const limit = math.MaxUint16
	cases := []struct {
		name string
		in   string
	}{
		{"ascii at limit", strings.Repeat("x", limit)},
		{"2-byte rune straddles", strings.Repeat("x", limit-1) + "é"},
		{"3-byte rune straddles", strings.Repeat("x", limit-2) + "世界"},
		{"4-byte rune straddles", strings.Repeat("x", limit-3) + "🙂🙂"},
		{"multibyte run over limit", strings.Repeat("é", limit)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := smallFile(t)
			f.Root.States[0].StartCargo = c.in
			var buf bytes.Buffer
			if err := Write(&buf, f); err != nil {
				t.Fatal(err)
			}
			g, err := Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			states, _, _ := g.All()
			got := states[0].StartCargo
			if states[0].Start != f.Root.States[0].Start {
				// All() order is frame order; the fixture has one state.
				t.Fatal("fixture has more states than expected")
			}
			want := clog2.Trunc(c.in, limit)
			if got != want {
				t.Fatalf("cargo len %d, want %d", len(got), len(want))
			}
			if !utf8.ValidString(got) {
				t.Fatalf("cargo is invalid UTF-8 after truncation")
			}
		})
	}
}

// failAfter errors once n bytes have been written — the injected
// mid-write failure of the torn-write test.
type failAfter struct {
	w io.Writer
	n int
}

var errInjected = errors.New("injected write failure")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errInjected
	}
	if len(p) > f.n {
		n, _ := f.w.Write(p[:f.n])
		f.n = 0
		return n, errInjected
	}
	f.n -= len(p)
	return f.w.Write(p)
}

// A failed WriteFile must leave neither a truncated destination nor a
// stranded temp file; a successful one must replace an existing file.
func TestWriteFileAtomicOnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.slog2")
	f := smallFile(t)

	// Seed a good file, then fail a rewrite mid-stream at several cut
	// points: the original must survive byte-identical every time.
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, len(Magic), len(orig) / 2, len(orig) - 1} {
		err := clog2.WriteFileAtomic(path, func(w io.Writer) error {
			return Write(&failAfter{w: w, n: cut}, f)
		})
		if !errors.Is(err, errInjected) {
			t.Fatalf("cut %d: err = %v, want injected failure", cut, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("cut %d: original destroyed: %v", cut, err)
		}
		if !bytes.Equal(got, orig) {
			t.Fatalf("cut %d: destination modified by failed write", cut)
		}
	}

	// Fresh destination + failure: no partial file appears at all.
	fresh := filepath.Join(dir, "fresh.slog2")
	err = clog2.WriteFileAtomic(fresh, func(w io.Writer) error {
		return Write(&failAfter{w: w, n: 32}, f)
	})
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v", err)
	}
	if _, err := os.Stat(fresh); !os.IsNotExist(err) {
		t.Fatalf("partial file left behind: stat err = %v", err)
	}

	// No temp droppings either way.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != "run.slog2" {
			t.Fatalf("stray file %q left in directory", e.Name())
		}
	}

	// And the success path still replaces an existing file.
	f.End += 1
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	g, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.End != f.End {
		t.Fatal("rewrite did not land")
	}
}
