package slog2

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func golden(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", name+".slog2"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// synthFile builds a File of n drawables with cargo (half states, a quarter
// arrows, a quarter events) in a balanced tree whose leaves hold 128 each.
func synthFile(n int) *File {
	f := &File{NumRanks: 8, End: float64(n), Categories: []Category{
		{Name: "PI_Write", Color: "green"}, {Name: "PI_Read", Color: "red"}, {Name: "MsgArrival", Color: "yellow", Kind: KindEvent}}}
	var build func(lo, hi int) *Frame
	build = func(lo, hi int) *Frame {
		fr := &Frame{Start: float64(lo), End: float64(hi)}
		if hi-lo > 128 {
			fr.Left, fr.Right = build(lo, (lo+hi)/2), build((lo+hi)/2, hi)
			return fr
		}
		for i := lo; i < hi; i++ {
			t, rank := float64(i), i%f.NumRanks
			switch i % 4 {
			case 0, 1:
				fr.States = append(fr.States, State{Rank: rank, Cat: i % 2, Start: t, End: t + 0.5,
					StartCargo: fmt.Sprintf("line: pingpong.go:%d", 80+i%16), EndCargo: "chan: C3"})
			case 2:
				fr.Arrows = append(fr.Arrows, Arrow{SrcRank: rank, DstRank: (rank + 1) % f.NumRanks, Start: t, End: t + 0.25, Tag: i % 9, Size: 64})
			case 3:
				fr.Events = append(fr.Events, Event{Rank: rank, Cat: 2, Time: t, Cargo: fmt.Sprintf("chan: C%d", i%9)})
			}
		}
		return fr
	}
	f.Root = build(0, n)
	return f
}

func BenchmarkWrite(b *testing.B) {
	f := synthFile(200_000)
	var out bytes.Buffer
	if err := Write(&out, f); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(out.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		if err := Write(&out, f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRead(b *testing.B) {
	var out bytes.Buffer
	if err := Write(&out, synthFile(200_000)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(out.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(out.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// What the codec costs is a gate: Read allocates the file's bytes, the
// header's tables and, a frame, the frame and one slice per kind of
// drawable it holds (nothing per drawable, nothing per cargo); Write its
// one buffer.
func TestCodecAllocations(t *testing.T) {
	var synth bytes.Buffer
	if err := Write(&synth, synthFile(20_000)); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"thumbnail golden": golden(t, "thumbnail"), "synthesized": synth.Bytes()} {
		f, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		frames, drawables := 0, 0
		f.Walk(func(fr *Frame) {
			frames++
			drawables += len(fr.States) + len(fr.Arrows) + len(fr.Events)
		})
		if drawables < 10*frames {
			t.Fatalf("%s: %d drawables in %d frames: the gate below would hide an allocation a drawable", name, drawables, frames)
		}
		r := bytes.NewReader(data)
		reads := testing.AllocsPerRun(10, func() {
			r.Reset(data)
			if _, err := Read(r); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(12 + 4*frames); reads > limit {
			t.Errorf("%s: Read made %.0f allocations for %d frames and %d drawables, want at most %.0f", name, reads, frames, drawables, limit)
		}
		var out bytes.Buffer
		out.Grow(len(data))
		writes := testing.AllocsPerRun(10, func() {
			out.Reset()
			if err := Write(&out, f); err != nil {
				t.Fatal(err)
			}
		})
		if writes > 2 {
			t.Errorf("%s: Write made %.0f allocations, want its buffer and its encoder", name, writes)
		}
		t.Logf("%s, %d frames, %d drawables: Read %.0f allocations, Write %.0f", name, frames, drawables, reads, writes)
	}
}

// A count sizes a slice, so one the file cannot back is refused before
// anything is made from it: the 59 bytes up to the root frame's state
// count, claiming 1<<28 states (16 GiB of them), cost a few hundred bytes
// to turn down.
func TestReadRefusesCountTheFileCannotHold(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &File{Root: &Frame{}}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:len(Magic)+4+8+8+4+4+1+8+8+4]
	le.PutUint32(data[len(data)-4:], 1<<28)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "implausible count") {
		t.Fatalf("err = %v, want an implausible count", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<10 {
		t.Errorf("refusing the count allocated %d bytes", got)
	}
}

// The lab2 golden cut anywhere is a truncated file, whatever the cut falls
// in: a count, a cargo, a frame marker.
func TestReadTruncatedAtEveryOffset(t *testing.T) {
	data := golden(t, "lab2")
	for cut := 0; cut < len(data); cut++ {
		want := "truncated or corrupt file"
		if cut < len(Magic) {
			want = "reading magic"
		}
		if _, err := Read(bytes.NewReader(data[:cut])); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("cut at %d of %d: err = %v, want %q", cut, len(data), err, want)
		}
	}
}
