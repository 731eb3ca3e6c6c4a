package slog2

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/clog2"
)

// Magic begins every SLOG-2 file; the digits are this format's version.
// previousMagic files stored a per-frame preview table nothing read; the
// reader refuses them by name instead of keeping a second decoder, because an
// SLOG-2 is always regenerable from its CLOG-2.
const (
	Magic         = "SLOG-R0207"
	previousMagic = "SLOG-R0206"
)

// maxFrameDepth bounds the frame-tree recursion while decoding. The
// converter builds a height-balanced tree (depth ~ log2(drawables /
// capacity)), so any legitimate file stays far below this; a crafted
// left-spine chain that would otherwise exhaust the goroutine stack is
// rejected as corrupt instead.
const maxFrameDepth = 64

// maxRanks bounds NumRanks on the read side; the same ceiling the
// category count already gets.
const maxRanks = 1 << 24

// The least a state, an arrow and an event take in a file (no cargo).
const (
	minState = 4 + 4 + 8 + 8 + 2 + 2
	minArrow = 4 + 4 + 8 + 8 + 4 + 4
	minEvent = 4 + 4 + 8 + 2
)

// flushAt is how much the encoder buffers before it hands the bytes to the
// writer. One buffer for the whole file is slower, 4.5 against 3.0 ms on
// BenchmarkWrite's 8.6 MB: it is cleared first and, in a process that
// writes one file, faulted in, and it is the file's size again in memory.
const flushAt = 64 << 10

var le = binary.LittleEndian

// Write serialises f onto w.
func Write(w io.Writer, f *File) error {
	if f == nil || f.Root == nil {
		return fmt.Errorf("slog2: cannot write file without a root frame")
	}
	// A drawable is appended whole before the length is looked at, so leave
	// room past flushAt for one with ordinary cargo; a longer one grows it.
	e := &encoder{w: w}
	b := append(make([]byte, 0, flushAt+4096), Magic...)
	b = appendInt(b, f.NumRanks)
	b = appendFloat(b, f.Start)
	b = appendFloat(b, f.End)
	b = appendInt(b, len(f.Categories))
	for _, c := range f.Categories {
		b = append(b, byte(c.Kind))
		b = appendString(b, c.Color)
		b = e.room(appendString(b, c.Name))
	}
	b = appendInt(b, len(f.Warnings))
	for _, s := range f.Warnings {
		b = e.room(appendString(b, s))
	}
	e.flush(e.frame(b, f.Root))
	return e.err
}

// WriteFile serialises f to a file at path. The bytes land in a
// temporary file in the same directory which is renamed over path only
// after a successful write, so a mid-write failure (full disk, crash)
// never leaves a truncated .slog2 where a serve repository would pick
// it up.
func WriteFile(path string, f *File) error {
	return clog2.WriteFileAtomic(path, func(w io.Writer) error { return Write(w, f) })
}

// ReadFile parses the SLOG-2 file at path.
func ReadFile(path string) (*File, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	info, err := in.Stat()
	if err != nil {
		return nil, err
	}
	return read(in, info.Size())
}

// read decodes the file r holds, size bytes of it if the caller knows. The
// file is read once, whole, into the memory its strings are then cut from:
// a strings.Builder filled by io.Copy is that string without a second copy
// of the file. A decoded File therefore keeps its file's bytes alive, in
// one object, where it used to keep one small object per cargo.
func read(r io.Reader, size int64) (*File, error) {
	var data strings.Builder
	// The magic is checked before the rest is read, so that something that
	// is not an SLOG-2 costs ten bytes, whatever its size.
	if _, err := io.CopyN(&data, r, int64(len(Magic))); err != nil {
		return nil, fmt.Errorf("slog2: reading magic: %w", err)
	}
	switch magic := data.String(); magic {
	case Magic:
	case previousMagic:
		return nil, fmt.Errorf("slog2: %s file, this version reads %s: rebuild it with `clog2slog <run>.clog2`", previousMagic, Magic)
	default:
		return nil, fmt.Errorf("slog2: bad magic %q (not an SLOG-2 file?)", magic)
	}
	data.Grow(max(0, int(size)-len(Magic)))
	if _, err := io.Copy(&data, r); err != nil {
		return nil, fmt.Errorf("slog2: truncated or corrupt file: %w", err)
	}
	d := &decoder{data: data.String(), pos: len(Magic)}
	f := &File{}
	f.NumRanks = getInt(d.take(4))
	if d.err == nil && (f.NumRanks < 0 || f.NumRanks > maxRanks) {
		return nil, fmt.Errorf("slog2: implausible rank count %d", f.NumRanks)
	}
	f.Start = getFloat(d.take(8))
	f.End = getFloat(d.take(8))
	if n := d.count("category ", 1<<20, 1+2+2); n > 0 {
		f.Categories = make([]Category, n)
	}
	for i := range f.Categories {
		c := &f.Categories[i]
		// One encoding per file: a kind the writer has no name for would
		// decode to a File that encodes to other bytes.
		if c.Kind = CategoryKind(d.take(1)[0]); c.Kind > KindEvent {
			d.fail(fmt.Errorf("slog2: truncated or corrupt file: category kind %d", c.Kind))
		}
		c.Color = d.str()
		c.Name = d.str()
		if d.err != nil {
			return nil, d.err
		}
	}
	if n := d.count("warning ", 1<<24, 2); n > 0 {
		f.Warnings = make([]string, n)
	}
	for i := range f.Warnings {
		if f.Warnings[i] = d.str(); d.err != nil {
			return nil, d.err
		}
	}
	// The frame decoder validates every drawable's category and rank
	// against the header so downstream consumers (search, legend, tile
	// rendering) can index f.Categories without rechecking.
	d.ncats = len(f.Categories)
	d.nranks = f.NumRanks
	f.Root = d.frame(0)
	if d.err != nil {
		return nil, d.err
	}
	// Write refuses to serialise a file without a root frame, so a
	// root-less stream can only be hand-crafted: reject it for symmetry.
	if f.Root == nil {
		return nil, fmt.Errorf("slog2: file has no root frame")
	}
	// A half-overwritten or concatenated file is not a clean one.
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("slog2: trailing bytes after the root frame")
	}
	return f, nil
}

func appendInt(b []byte, v int) []byte { return le.AppendUint32(b, uint32(v)) }

func appendFloat(b []byte, v float64) []byte { return le.AppendUint64(b, math.Float64bits(v)) }

func appendString(b []byte, s string) []byte {
	// Rune-safe truncation: a multibyte rune straddling the length limit
	// is dropped whole instead of leaking invalid UTF-8 into cargo.
	s = clog2.Trunc(s, math.MaxUint16)
	return append(le.AppendUint16(b, uint16(len(s))), s...)
}

// encoder carries the writer under the one buffer Write appends to, which
// its callers pass along and get back (so it lives in registers); err is
// the writer's first error, after which nothing more is handed to it.
type encoder struct {
	w   io.Writer
	err error
}

// flush hands b to the writer and returns it empty.
func (e *encoder) flush(b []byte) []byte {
	if e.err == nil && len(b) > 0 {
		_, e.err = e.w.Write(b)
	}
	return b[:0]
}

// room flushes b once it has passed flushAt.
func (e *encoder) room(b []byte) []byte {
	if len(b) < flushAt {
		return b
	}
	return e.flush(b)
}

func (e *encoder) frame(b []byte, fr *Frame) []byte {
	if fr == nil || e.err != nil { // absent, or not worth walking: the writer has failed
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendFloat(b, fr.Start)
	b = appendFloat(b, fr.End)
	b = appendInt(b, len(fr.States))
	for i := range fr.States {
		s := &fr.States[i]
		b = appendInt(b, s.Rank)
		b = appendInt(b, s.Cat)
		b = appendFloat(b, s.Start)
		b = appendFloat(b, s.End)
		b = appendString(b, s.StartCargo)
		b = e.room(appendString(b, s.EndCargo))
	}
	b = appendInt(b, len(fr.Arrows))
	for i := range fr.Arrows {
		a := &fr.Arrows[i]
		b = appendInt(b, a.SrcRank)
		b = appendInt(b, a.DstRank)
		b = appendFloat(b, a.Start)
		b = appendFloat(b, a.End)
		b = appendInt(b, a.Tag)
		b = e.room(appendInt(b, a.Size))
	}
	b = appendInt(b, len(fr.Events))
	for i := range fr.Events {
		ev := &fr.Events[i]
		b = appendInt(b, ev.Rank)
		b = appendInt(b, ev.Cat)
		b = appendFloat(b, ev.Time)
		b = e.room(appendString(b, ev.Cargo))
	}
	return e.frame(e.frame(b, fr.Left), fr.Right)
}

// decoder walks the whole file held as one string: every name and cargo
// it returns is a substring of data, not a copy.
type decoder struct {
	data string
	pos  int
	// err is the first failure; from then on the file reads as exhausted
	// (take returns zeros, counts are 0), so the loops run out by themselves.
	err error
	// ncats and nranks bound drawable category and rank indices while
	// decoding frames (set from the header before the root frame).
	ncats  int
	nranks int
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.pos = len(d.data)
}

// zeros stands in for the fields of a file that has run out.
const zeros = "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"

// take returns the next n bytes. Where the file ends first the decode
// fails and take returns zeros (as many of the n as it has), so a caller
// reads the fixed-size fields of a drawable without a check apiece.
func (d *decoder) take(n int) string {
	if len(d.data)-d.pos < n {
		d.fail(fmt.Errorf("slog2: truncated or corrupt file: %w", io.ErrUnexpectedEOF))
		return zeros[:min(n, len(zeros))]
	}
	s := d.data[d.pos : d.pos+n]
	d.pos += n
	return s
}

func (d *decoder) str() string {
	if s := d.take(int(le16(d.take(2)))); d.err == nil {
		return s
	}
	return ""
}

// Integers come out of the string by shifts (the compiler makes each one
// load): encoding/binary reads []byte, and a string converts to that only
// by a copy.
func le16(s string) uint16 { return uint16(s[0]) | uint16(s[1])<<8 }

func le32(s string) uint32 {
	_ = s[3]
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
}

func getInt(s string) int { return int(int32(le32(s))) }

func getFloat(s string) float64 {
	return math.Float64frombits(uint64(le32(s)) | uint64(le32(s[4:]))<<32)
}

// count reads how many of something follow and refuses a number above
// limit, or one the rest of the file could not hold at size bytes apiece:
// a slice made from a count is never larger than the file warrants.
func (d *decoder) count(what string, limit, size int) int {
	n := getInt(d.take(4))
	switch left := len(d.data) - d.pos; {
	case d.err != nil:
	case n < 0 || n > limit:
		d.fail(fmt.Errorf("slog2: implausible %scount %d", what, n))
	case n > left/size:
		d.fail(fmt.Errorf("slog2: truncated or corrupt file: implausible %scount %d with %d bytes left", what, n, left))
	default:
		return n
	}
	return 0
}

// cat reads a drawable's category index and rejects anything the
// header's category table cannot satisfy — the index that made
// jumpshot.Search panic on hostile files.
func (d *decoder) cat(s string) int {
	c := getInt(s)
	if c < 0 || c >= d.ncats {
		d.fail(fmt.Errorf("slog2: drawable category %d out of range [0,%d)", c, d.ncats))
	}
	return c
}

// rank reads a drawable's rank and rejects negatives and ranks beyond
// the header's NumRanks.
func (d *decoder) rank(s string) int {
	r := getInt(s)
	if r < 0 || r >= d.nranks {
		d.fail(fmt.Errorf("slog2: drawable rank %d out of range [0,%d)", r, d.nranks))
	}
	return r
}

// place rejects a drawable spanning [lo, hi] that no query could find
// or order: a time that is NaN or infinite, which has no place in time
// order, or one outside its frame (CheckInvariants' rule), which Frames
// prunes away from every window that holds the drawable but not the frame.
func (d *decoder) place(what string, lo, hi float64, fr *Frame) {
	switch {
	case math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0):
		d.fail(fmt.Errorf("slog2: %s time [%v,%v] is not finite", what, lo, hi))
	case escapes(lo, hi, fr):
		d.fail(fmt.Errorf("slog2: %s [%v,%v] escapes frame [%v,%v]", what, lo, hi, fr.Start, fr.End))
	}
}

func (d *decoder) frame(depth int) *Frame {
	if d.err != nil {
		return nil
	}
	if depth > maxFrameDepth {
		d.fail(fmt.Errorf("slog2: frame tree deeper than %d (corrupt or hostile file)", maxFrameDepth))
		return nil
	}
	switch present := d.take(1)[0]; {
	case present == 0: // also a file that ends here: take has failed it
		return nil
	case present > 1:
		d.fail(fmt.Errorf("slog2: truncated or corrupt file: frame marker %d", present))
		return nil
	}
	fr := &Frame{Start: getFloat(d.take(8)), End: getFloat(d.take(8))}
	// Each slice is made once, at its final size, from its count.
	if n := d.count("", 1<<28, minState); n > 0 {
		fr.States = make([]State, n)
	}
	for i := range fr.States {
		s, b := &fr.States[i], d.take(minState-4)
		s.Rank, s.Cat = d.rank(b), d.cat(b[4:])
		s.Start, s.End = getFloat(b[8:]), getFloat(b[16:])
		s.StartCargo = d.str()
		s.EndCargo = d.str()
		d.place("state", s.Start, s.End, fr)
		if d.err != nil {
			return nil
		}
	}
	if n := d.count("", 1<<28, minArrow); n > 0 {
		fr.Arrows = make([]Arrow, n)
	}
	for i := range fr.Arrows {
		a, b := &fr.Arrows[i], d.take(minArrow)
		a.SrcRank, a.DstRank = d.rank(b), d.rank(b[4:])
		a.Start, a.End = getFloat(b[8:]), getFloat(b[16:])
		a.Tag, a.Size = getInt(b[24:]), getInt(b[28:])
		d.place("arrow", min(a.Start, a.End), max(a.Start, a.End), fr)
		if d.err != nil {
			return nil
		}
	}
	if n := d.count("", 1<<28, minEvent); n > 0 {
		fr.Events = make([]Event, n)
	}
	for i := range fr.Events {
		ev, b := &fr.Events[i], d.take(minEvent-2)
		ev.Rank, ev.Cat, ev.Time = d.rank(b), d.cat(b[4:]), getFloat(b[8:])
		ev.Cargo = d.str()
		d.place("event", ev.Time, ev.Time, fr)
		if d.err != nil {
			return nil
		}
	}
	fr.Left = d.frame(depth + 1)
	fr.Right = d.frame(depth + 1)
	if d.err != nil {
		return nil
	}
	return fr
}
