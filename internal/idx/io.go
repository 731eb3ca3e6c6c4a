package idx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/clog2"
)

// On-disk layout (all integers little-endian):
//
//	magic        10 bytes  "CLOGIDX-02"
//	version      u32
//	sourceSize   i64   ┐ generation stamp of the indexed log
//	sourceMtime  i64   ┘ (UnixNano; 0,0 = unstamped, always stale)
//	numRanks     i32
//	totalRecords i64
//	nblocks      u32, then per block (64 bytes):
//	  offset i64, length i64, rank i32, records i32, defs i32, msgs i32,
//	  tmin f64, tmax f64, rankMin i32, rankMax i32, chanMin i32, chanMax i32
//	crc32        u32 (IEEE, over every preceding byte)

const (
	blockEntrySize = 64
	fixedHeadSize  = len(Magic) + 4 + 8 + 8 + 4 + 8
)

// Encode serialises the index. The byte form is deterministic for a
// given Index.
func Encode(ix *Index) []byte {
	return AppendEncode(nil, ix)
}

// AppendEncode is Encode appending to dst — the allocation-free path
// when dst's capacity already fits (mpe's pooled emission reuses one
// buffer across runs).
func AppendEncode(dst []byte, ix *Index) []byte {
	need := fixedHeadSize + 4 + len(ix.Blocks)*blockEntrySize + 4
	if cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	base := len(dst)
	dst = append(dst, Magic...)
	dst = le32(dst, Version)
	dst = le64(dst, uint64(ix.SourceSize))
	dst = le64(dst, uint64(ix.SourceModNanos))
	dst = le32(dst, uint32(int32(ix.NumRanks)))
	dst = le64(dst, uint64(ix.TotalRecords))
	dst = le32(dst, uint32(len(ix.Blocks)))
	for i := range ix.Blocks {
		b := &ix.Blocks[i]
		dst = le64(dst, uint64(b.Offset))
		dst = le64(dst, uint64(b.Length))
		dst = le32(dst, uint32(b.Rank))
		dst = le32(dst, uint32(b.Records))
		dst = le32(dst, uint32(b.Defs))
		dst = le32(dst, uint32(b.Msgs))
		dst = le64(dst, math.Float64bits(b.TMin))
		dst = le64(dst, math.Float64bits(b.TMax))
		dst = le32(dst, uint32(b.RankMin))
		dst = le32(dst, uint32(b.RankMax))
		dst = le32(dst, uint32(b.ChanMin))
		dst = le32(dst, uint32(b.ChanMax))
	}
	dst = le32(dst, crc32.ChecksumIEEE(dst[base:]))
	return dst
}

func le32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func le64(dst []byte, v uint64) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// Decode parses and validates a sidecar. Every failure — short data, bad
// magic or version, CRC mismatch, implausible geometry — wraps
// ErrCorrupt, so consumers can treat "fails validation" as one
// degradation case.
func Decode(data []byte) (*Index, error) {
	if len(data) < fixedHeadSize+4+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any index", ErrCorrupt, len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:len(Magic)])
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (%08x != %08x)", ErrCorrupt, got, want)
	}
	c := cursor{data: body, pos: len(Magic)}
	if v := c.u32(); v != Version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	ix := &Index{
		SourceSize:     int64(c.u64()),
		SourceModNanos: int64(c.u64()),
		NumRanks:       int(int32(c.u32())),
		TotalRecords:   int64(c.u64()),
	}
	if ix.NumRanks < 1 || ix.NumRanks > 1<<20 {
		return nil, fmt.Errorf("%w: implausible rank count %d", ErrCorrupt, ix.NumRanks)
	}
	nblocks := int(c.u32())
	if c.err != nil || nblocks < 0 || !c.fits(nblocks, blockEntrySize) {
		return nil, fmt.Errorf("%w: block table overruns the file", ErrCorrupt)
	}
	ix.Blocks = make([]BlockMeta, nblocks)
	var sum int64
	for i := range ix.Blocks {
		b := &ix.Blocks[i]
		b.Offset = int64(c.u64())
		b.Length = int64(c.u64())
		b.Rank = int32(c.u32())
		b.Records = int32(c.u32())
		b.Defs = int32(c.u32())
		b.Msgs = int32(c.u32())
		b.TMin = math.Float64frombits(c.u64())
		b.TMax = math.Float64frombits(c.u64())
		b.RankMin = int32(c.u32())
		b.RankMax = int32(c.u32())
		b.ChanMin = int32(c.u32())
		b.ChanMax = int32(c.u32())
		if b.Offset < int64(clog2.HeaderSize) || b.Length <= 0 {
			return nil, fmt.Errorf("%w: block %d spans [%d,+%d)", ErrCorrupt, i, b.Offset, b.Length)
		}
		if i > 0 {
			prev := &ix.Blocks[i-1]
			if b.Offset < prev.Offset+prev.Length {
				return nil, fmt.Errorf("%w: block %d overlaps its predecessor", ErrCorrupt, i)
			}
		}
		if b.Records < 0 || b.Defs < 0 || b.Msgs < 0 ||
			b.Defs > b.Records || b.Msgs > b.Records-b.Defs {
			return nil, fmt.Errorf("%w: block %d counts are inconsistent", ErrCorrupt, i)
		}
		sum += int64(b.Records)
	}
	if sum != ix.TotalRecords {
		return nil, fmt.Errorf("%w: block records sum to %d, header says %d", ErrCorrupt, sum, ix.TotalRecords)
	}
	if c.err != nil {
		return nil, fmt.Errorf("%w: truncated", ErrCorrupt)
	}
	if c.pos != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(body)-c.pos)
	}
	return ix, nil
}

// cursor is a bounds-checked little-endian reader over a byte slice.
type cursor struct {
	data []byte
	pos  int
	err  error
}

func (c *cursor) fits(n, size int) bool {
	return c.err == nil && n <= (len(c.data)-c.pos)/size
}

func (c *cursor) u32() uint32 {
	if c.err != nil || c.pos+4 > len(c.data) {
		c.err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.LittleEndian.Uint32(c.data[c.pos:])
	c.pos += 4
	return v
}

func (c *cursor) u64() uint64 {
	if c.err != nil || c.pos+8 > len(c.data) {
		c.err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.LittleEndian.Uint64(c.data[c.pos:])
	c.pos += 8
	return v
}

// maxSidecarSize caps how much of a claimed sidecar Read will buffer: a
// hostile file cannot force an unbounded allocation. 64 MiB of entries
// indexes roughly a terabyte of log at the merge's block granularity.
const maxSidecarSize = 64 << 20

// Read parses a sidecar from r.
func Read(r io.Reader) (*Index, error) { return read(r, 0) }

// read is Read with the size the caller expects r to hold: the buffer is
// made once for it (capped like the read itself) instead of growing there.
func read(r io.Reader, size int64) (*Index, error) {
	var data bytes.Buffer
	data.Grow(int(min(size, maxSidecarSize)) + bytes.MinRead)
	if _, err := data.ReadFrom(io.LimitReader(r, maxSidecarSize+1)); err != nil {
		return nil, err
	}
	if data.Len() > maxSidecarSize {
		return nil, fmt.Errorf("%w: sidecar exceeds %d bytes", ErrCorrupt, maxSidecarSize)
	}
	return Decode(data.Bytes())
}

// Write serialises ix onto w.
func Write(w io.Writer, ix *Index) error {
	_, err := w.Write(Encode(ix))
	return err
}

// Generation returns the staleness stamp for the file behind info — the
// same size+mtime scheme internal/serve uses for its caches.
func Generation(info os.FileInfo) (size, modNanos int64) {
	return info.Size(), info.ModTime().UnixNano()
}

// WriteFileFor stamps ix with clogPath's current generation and writes
// the sidecar next to it (SidecarPath), via a temp file and rename so a
// crash never leaves a torn sidecar that parses.
func WriteFileFor(clogPath string, ix *Index) error {
	info, err := os.Stat(clogPath)
	if err != nil {
		return err
	}
	ix.SourceSize, ix.SourceModNanos = Generation(info)
	return clog2.WriteFileAtomic(SidecarPath(clogPath), func(w io.Writer) error { return Write(w, ix) })
}

// Load reads and validates the sidecar for clogPath. Degradation is
// reported through the sentinel errors: ErrNoIndex when no sidecar
// exists, ErrCorrupt when it fails validation, ErrStale when its
// generation stamp no longer matches the log on disk.
func Load(clogPath string) (*Index, error) {
	f, err := os.Open(SidecarPath(clogPath))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w (%s)", ErrNoIndex, SidecarPath(clogPath))
		}
		return nil, err
	}
	defer f.Close()
	side, err := f.Stat()
	if err != nil {
		return nil, err
	}
	ix, err := read(f, side.Size())
	if err != nil {
		return nil, err
	}
	info, err := os.Stat(clogPath)
	if err != nil {
		return nil, err
	}
	if size, mod := Generation(info); size != ix.SourceSize || mod != ix.SourceModNanos {
		return nil, fmt.Errorf("%w: log is %d bytes @%d, index was built for %d bytes @%d",
			ErrStale, size, mod, ix.SourceSize, ix.SourceModNanos)
	}
	if n := ix.Blocks; len(n) > 0 {
		if last := n[len(n)-1]; last.Offset+last.Length > ix.SourceSize {
			return nil, fmt.Errorf("%w: block table extends past the log", ErrCorrupt)
		}
	}
	return ix, nil
}

// Status classifies a trace's sidecar for reporting (pilot-serve meta,
// pilot-index info).
type Status int

// Sidecar states.
const (
	StatusNone Status = iota
	StatusOK
	StatusStale
	StatusCorrupt
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusNone:
		return "none"
	case StatusOK:
		return "ok"
	case StatusStale:
		return "stale"
	case StatusCorrupt:
		return "corrupt"
	}
	return "unknown"
}

// ProbeHeader classifies clogPath's sidecar from its fixed header alone
// — magic, version, generation stamp — without reading or checksumming
// the body: the stat-cheap form directory listings use. Body corruption
// is invisible to it; Load still validates fully before any consumer
// trusts the index.
func ProbeHeader(clogPath string) Status {
	f, err := os.Open(SidecarPath(clogPath))
	if err != nil {
		return StatusNone
	}
	defer f.Close()
	var head [fixedHeadSize]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return StatusCorrupt
	}
	if string(head[:len(Magic)]) != Magic {
		return StatusCorrupt
	}
	c := cursor{data: head[:], pos: len(Magic)}
	if v := c.u32(); v != Version {
		return StatusCorrupt
	}
	srcSize, srcMod := int64(c.u64()), int64(c.u64())
	info, err := os.Stat(clogPath)
	if err != nil {
		return StatusStale
	}
	if size, mod := Generation(info); size != srcSize || mod != srcMod {
		return StatusStale
	}
	return StatusOK
}

// Probe reports the sidecar state for clogPath without returning the
// index.
func Probe(clogPath string) Status {
	_, err := Load(clogPath)
	return statusOf(err)
}

// statusOf classifies Load's error.
func statusOf(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, ErrNoIndex):
		return StatusNone
	case errors.Is(err, ErrStale):
		return StatusStale
	default:
		return StatusCorrupt
	}
}

// BuildFile rebuilds an index by scanning the whole CLOG-2 file at path
// — the fallback producer for logs that predate inline emission.
func BuildFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br, err := clog2.NewBlockReader(f)
	if err != nil {
		return nil, err
	}
	b := NewBuilder(br.NumRanks())
	err = br.Each(func(run clog2.Block) error {
		b.AddRun(br, run, 0)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return b.Index(), nil
}

// Rebuild scans the log at path and writes a fresh sidecar beside it.
func Rebuild(path string) (*Index, error) {
	ix, err := BuildFile(path)
	if err != nil {
		return nil, err
	}
	return ix, WriteFileFor(path, ix)
}

// Walk is the one place that decides between the index and the scan. It
// visits, in file order, the blocks of the log at path that can hold a
// record q matches: those a valid sidecar selects (Load, Select,
// ScanFile), or every block of the file. begin takes the log's rank count
// and returns the visitor for one attempt; when a sidecar validates and
// then disagrees with the file mid-scan, Walk calls begin again and reads
// every block, so a consumer keeps only what its latest begin started:
// the disagreement can come after runs of the lying block were delivered.
// A visitor may only walk the records it is handed: every block, selected
// or not, comes in runs (clog2's NextRun).
// The Status says what the answer rests on: StatusOK, the index selected
// the blocks; any other, why it did not (one caught lying is Corrupt).
func Walk(path string, q Query, begin func(numRanks int) func(clog2.Block) error) (Status, error) {
	ix, err := Load(path)
	st := statusOf(err)
	if err == nil {
		if err = ScanFile(path, ix, ix.Select(q), begin(ix.NumRanks)); err == nil {
			return StatusOK, nil
		}
		st = StatusCorrupt
	}
	f, err := os.Open(path)
	if err != nil {
		return st, err
	}
	defer f.Close()
	br, err := clog2.NewBlockReader(f)
	if err != nil {
		return st, err
	}
	return st, br.Each(begin(br.NumRanks()))
}

// ScanFile visits the selected blocks of the log at path in file order,
// seeking over everything in between; consecutive selected blocks are
// read without a seek. fn gets each block in runs (clog2's NextRun, into
// the buffer Each would use) that share that buffer: it must not retain
// them. Both buffers of the scan go back to their pools when it returns,
// so a window allocates what it keeps and not what it reads through.
// Every run is checked against the block's index entry (its rank, and a
// running record count that may not pass the entry's and must equal it on
// the last run); a mismatch means the index lies about the file and
// surfaces as an ErrCorrupt-wrapped error, so callers can degrade to the
// full scan. A lie about a block's length can surface after fn has seen
// earlier runs of that block: what fn built is then to be thrown away.
func ScanFile(path string, ix *Index, sel []int, fn func(clog2.Block) error) error {
	if len(sel) == 0 {
		return nil
	}
	for _, i := range sel {
		if i < 0 || i >= len(ix.Blocks) {
			return fmt.Errorf("idx: block selection %d out of range", i)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br, err := clog2.NewBlockReaderAt(f, ix.Blocks[sel[0]].Offset, ix.NumRanks)
	if err != nil {
		return err
	}
	defer br.Release()
	pos := ix.Blocks[sel[0]].Offset
	buf := clog2.NewRunBuffer()
	defer buf.Free()
	for _, i := range sel {
		bm := &ix.Blocks[i]
		if bm.Offset != pos {
			if err := br.SeekTo(bm.Offset); err != nil {
				return err
			}
		}
		for n, last := int32(0), false; !last; {
			var run clog2.Block
			if run, last, err = br.NextRun(buf[:0]); err != nil {
				return fmt.Errorf("%w: block %d at offset %d: %v", ErrCorrupt, i, bm.Offset, err)
			}
			n += int32(len(run.Records))
			if run.Rank != bm.Rank || n > bm.Records || last && n != bm.Records {
				return fmt.Errorf("%w: block %d at offset %d does not match its index entry", ErrCorrupt, i, bm.Offset)
			}
			if err := fn(run); err != nil {
				return err
			}
		}
		pos = bm.Offset + bm.Length
	}
	return nil
}
