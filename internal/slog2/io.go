package slog2

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/clog2"
)

// Magic begins every SLOG-2 file; the digits are this format's version.
// previousMagic files stored a per-frame preview table nothing read; Read
// refuses them by name instead of keeping a second decoder, because an
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

// Write serialises f onto w.
func Write(w io.Writer, f *File) error {
	if f == nil || f.Root == nil {
		return fmt.Errorf("slog2: cannot write file without a root frame")
	}
	e := &encoder{w: bufio.NewWriter(w)}
	e.raw([]byte(Magic))
	e.i32(int32(f.NumRanks))
	e.f64(f.Start)
	e.f64(f.End)
	e.i32(int32(len(f.Categories)))
	for _, c := range f.Categories {
		e.b(uint8(c.Kind))
		e.str(c.Color)
		e.str(c.Name)
	}
	e.i32(int32(len(f.Warnings)))
	for _, s := range f.Warnings {
		e.str(s)
	}
	e.frame(f.Root)
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

// WriteFile serialises f to a file at path. The bytes land in a
// temporary file in the same directory which is renamed over path only
// after a successful write, so a mid-write failure (full disk, crash)
// never leaves a truncated .slog2 where a serve repository would pick
// it up.
func WriteFile(path string, f *File) error {
	return writeFileAtomic(path, func(w io.Writer) error { return Write(w, f) })
}

// writeFileAtomic streams fill into a temp file next to path and
// renames it into place on success; on any error the temp file is
// removed and path is left untouched.
func writeFileAtomic(path string, fill func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := fill(tmp); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		tmp = nil
		return err
	}
	name := tmp.Name()
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// Read parses a complete SLOG-2 file.
func Read(r io.Reader) (*File, error) {
	d := &decoder{r: bufio.NewReader(r)}
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(d.r, magic); err != nil {
		return nil, fmt.Errorf("slog2: reading magic: %w", err)
	}
	if string(magic) == previousMagic {
		return nil, fmt.Errorf("slog2: %s file, this version reads %s: rebuild it with `clog2slog <run>.clog2`", previousMagic, Magic)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("slog2: bad magic %q (not an SLOG-2 file?)", magic)
	}
	f := &File{}
	f.NumRanks = int(d.i32())
	if d.err == nil && (f.NumRanks < 0 || f.NumRanks > maxRanks) {
		return nil, fmt.Errorf("slog2: implausible rank count %d", f.NumRanks)
	}
	f.Start = d.f64()
	f.End = d.f64()
	ncats := d.i32()
	if d.err == nil && (ncats < 0 || ncats > 1<<20) {
		return nil, fmt.Errorf("slog2: implausible category count %d", ncats)
	}
	for i := int32(0); i < ncats && d.err == nil; i++ {
		var c Category
		c.Kind = CategoryKind(d.b())
		c.Color = d.str()
		c.Name = d.str()
		f.Categories = append(f.Categories, c)
	}
	nwarn := d.i32()
	if d.err == nil && (nwarn < 0 || nwarn > 1<<24) {
		return nil, fmt.Errorf("slog2: implausible warning count %d", nwarn)
	}
	for i := int32(0); i < nwarn && d.err == nil; i++ {
		f.Warnings = append(f.Warnings, d.str())
	}
	// The frame decoder validates every drawable's category and rank
	// against the header so downstream consumers (search, legend, tile
	// rendering) can index f.Categories without rechecking.
	d.ncats = int(ncats)
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
	if _, err := d.r.ReadByte(); err == nil {
		return nil, fmt.Errorf("slog2: trailing bytes after the root frame")
	} else if err != io.EOF {
		return nil, fmt.Errorf("slog2: reading past the root frame: %w", err)
	}
	return f, nil
}

// ReadFile parses the SLOG-2 file at path.
func ReadFile(path string) (*File, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	return Read(in)
}

type encoder struct {
	w   *bufio.Writer
	err error
}

func (e *encoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *encoder) raw(b []byte) {
	if e.err != nil {
		return
	}
	_, err := e.w.Write(b)
	e.fail(err)
}

func (e *encoder) b(v uint8) {
	if e.err != nil {
		return
	}
	e.fail(e.w.WriteByte(v))
}

func (e *encoder) i32(v int32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(v))
	e.raw(buf[:])
}

func (e *encoder) f64(v float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	e.raw(buf[:])
}

func (e *encoder) str(s string) {
	// Rune-safe truncation: a multibyte rune straddling the length limit
	// is dropped whole instead of leaking invalid UTF-8 into cargo.
	s = clog2.Trunc(s, math.MaxUint16)
	var buf [2]byte
	binary.LittleEndian.PutUint16(buf[:], uint16(len(s)))
	e.raw(buf[:])
	e.raw([]byte(s))
}

func (e *encoder) frame(fr *Frame) {
	if fr == nil {
		e.b(0)
		return
	}
	e.b(1)
	e.f64(fr.Start)
	e.f64(fr.End)
	e.i32(int32(len(fr.States)))
	for _, s := range fr.States {
		e.i32(int32(s.Rank))
		e.i32(int32(s.Cat))
		e.f64(s.Start)
		e.f64(s.End)
		e.str(s.StartCargo)
		e.str(s.EndCargo)
	}
	e.i32(int32(len(fr.Arrows)))
	for _, a := range fr.Arrows {
		e.i32(int32(a.SrcRank))
		e.i32(int32(a.DstRank))
		e.f64(a.Start)
		e.f64(a.End)
		e.i32(int32(a.Tag))
		e.i32(int32(a.Size))
	}
	e.i32(int32(len(fr.Events)))
	for _, ev := range fr.Events {
		e.i32(int32(ev.Rank))
		e.i32(int32(ev.Cat))
		e.f64(ev.Time)
		e.str(ev.Cargo)
	}
	e.frame(fr.Left)
	e.frame(fr.Right)
}

type decoder struct {
	r   *bufio.Reader
	err error
	// ncats and nranks bound drawable category and rank indices while
	// decoding frames (set from the header before the root frame).
	ncats  int
	nranks int
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = fmt.Errorf("slog2: truncated or corrupt file: %w", err)
	}
}

func (d *decoder) b() uint8 {
	if d.err != nil {
		return 0
	}
	v, err := d.r.ReadByte()
	if err != nil {
		d.fail(err)
		return 0
	}
	return v
}

func (d *decoder) i32() int32 {
	if d.err != nil {
		return 0
	}
	var buf [4]byte
	if _, err := io.ReadFull(d.r, buf[:]); err != nil {
		d.fail(err)
		return 0
	}
	return int32(binary.LittleEndian.Uint32(buf[:]))
}

func (d *decoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	var buf [8]byte
	if _, err := io.ReadFull(d.r, buf[:]); err != nil {
		d.fail(err)
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
}

func (d *decoder) str() string {
	if d.err != nil {
		return ""
	}
	var buf [2]byte
	if _, err := io.ReadFull(d.r, buf[:]); err != nil {
		d.fail(err)
		return ""
	}
	n := binary.LittleEndian.Uint16(buf[:])
	s := make([]byte, n)
	if _, err := io.ReadFull(d.r, s); err != nil {
		d.fail(err)
		return ""
	}
	return string(s)
}

func (d *decoder) count(limit int32) int32 {
	n := d.i32()
	if d.err == nil && (n < 0 || n > limit) {
		d.err = fmt.Errorf("slog2: implausible count %d", n)
	}
	return n
}

// cat reads a drawable's category index and rejects anything the
// header's category table cannot satisfy — the index that made
// jumpshot.Search panic on hostile files.
func (d *decoder) cat() int {
	c := int(d.i32())
	if d.err == nil && (c < 0 || c >= d.ncats) {
		d.err = fmt.Errorf("slog2: drawable category %d out of range [0,%d)", c, d.ncats)
	}
	return c
}

// rank reads a drawable's rank and rejects negatives and ranks beyond
// the header's NumRanks.
func (d *decoder) rank() int {
	r := int(d.i32())
	if d.err == nil && (r < 0 || r >= d.nranks) {
		d.err = fmt.Errorf("slog2: drawable rank %d out of range [0,%d)", r, d.nranks)
	}
	return r
}

func (d *decoder) frame(depth int) *Frame {
	if d.err != nil {
		return nil
	}
	if depth > maxFrameDepth {
		d.err = fmt.Errorf("slog2: frame tree deeper than %d (corrupt or hostile file)", maxFrameDepth)
		return nil
	}
	present := d.b()
	if present == 0 || d.err != nil {
		return nil
	}
	fr := &Frame{}
	fr.Start = d.f64()
	fr.End = d.f64()
	ns := d.count(1 << 28)
	for i := int32(0); i < ns && d.err == nil; i++ {
		var s State
		s.Rank = d.rank()
		s.Cat = d.cat()
		s.Start = d.f64()
		s.End = d.f64()
		s.StartCargo = d.str()
		s.EndCargo = d.str()
		fr.States = append(fr.States, s)
	}
	na := d.count(1 << 28)
	for i := int32(0); i < na && d.err == nil; i++ {
		var a Arrow
		a.SrcRank = d.rank()
		a.DstRank = d.rank()
		a.Start = d.f64()
		a.End = d.f64()
		a.Tag = int(d.i32())
		a.Size = int(d.i32())
		fr.Arrows = append(fr.Arrows, a)
	}
	ne := d.count(1 << 28)
	for i := int32(0); i < ne && d.err == nil; i++ {
		var ev Event
		ev.Rank = d.rank()
		ev.Cat = d.cat()
		ev.Time = d.f64()
		ev.Cargo = d.str()
		fr.Events = append(fr.Events, ev)
	}
	fr.Left = d.frame(depth + 1)
	fr.Right = d.frame(depth + 1)
	if d.err != nil {
		return nil
	}
	return fr
}
