package idx

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"

	"repro/internal/clog2"
)

// ErrCorrupt wraps Walk's report of a table that validated and then
// disagreed with a block it selected: the table lies about the log.
var ErrCorrupt = errors.New("idx: block table does not match the log")

// Status says what an answer rests on (pilot-serve meta, pilot-index).
type Status int

// Table states.
const (
	// StatusDegraded: the log has no usable table, or its table lied
	// mid-scan, and the answer rests on every block of the log.
	StatusDegraded Status = iota
	// StatusOK: the table selected the blocks the answer rests on.
	StatusOK
)

// String implements fmt.Stringer.
func (s Status) String() string {
	if s == StatusOK {
		return "ok"
	}
	return "degraded"
}

// Load reads and validates the block table at the end of the log at path
// (clog2.ReadTable). When the log has no usable table, the error wraps
// clog2.ErrNoTable and says why.
func Load(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readTable(f)
}

// Probe reports whether the log at path has a table Load validates.
func Probe(path string) Status {
	if _, err := Load(path); err != nil {
		return StatusDegraded
	}
	return StatusOK
}

func readTable(f *os.File) (*Index, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	t, err := clog2.ReadTable(f, info.Size())
	return (*Index)(t), err
}

// Walk is the one place that decides between the table and the scan. It
// opens the log at path once and visits, in file order, the blocks that
// can hold a record q matches: those its validated table selects (Select,
// then scan's checked reading), or every block of the file. begin
// takes the log's rank count and returns the visitor for one attempt. When
// the table validates and then disagrees with a block mid-scan, Walk calls
// begin again and reads every block, so a consumer keeps only what its
// latest begin started: the disagreement can come after runs of the lying
// block were delivered. Any other error, the visitor's own among them,
// ends the walk at once; a window CheckWindow refuses ends it before the
// log is opened. A visitor may only walk the records it is handed: every
// block, selected or not, comes in runs (clog2's NextRunIn over q's
// window), and a run holds every record of its block in file order except
// the bare, cargo and message records stamped outside [q.T0, q.T1], which
// the decoder steps over undecoded because Matches drops them anyway.
// Definitions, time shifts, source locations and records that fail q's
// rank or channel filter are handed over; a run may be empty.
// The Status says what the answer rests on: StatusOK, the table selected
// the blocks; StatusDegraded, it could not.
func Walk(path string, q Query, begin func(numRanks int) func(clog2.Block) error) (Status, error) {
	if err := CheckWindow(q.T0, q.T1); err != nil {
		return StatusDegraded, fmt.Errorf("idx: %w", err)
	}
	f, err := os.Open(path)
	if err != nil {
		return StatusDegraded, err
	}
	defer f.Close()
	if ix, err := readTable(f); err == nil {
		if err := scan(f, ix, ix.Select(q), q, begin(ix.NumRanks)); !errors.Is(err, ErrCorrupt) {
			return StatusOK, err
		}
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return StatusDegraded, err
	}
	br, err := clog2.NewBlockReader(f)
	if err != nil {
		return StatusDegraded, err
	}
	return StatusDegraded, br.EachIn(q.T0, q.T1, begin(br.NumRanks()))
}

// scan visits the selected blocks of the log rs holds in file order,
// seeking over everything in between; consecutive selected blocks are
// read without a seek. fn gets each block in runs (clog2's NextRunIn over
// q's window, into the buffer Each would use) that share that buffer: it
// must not retain them. Both buffers of the scan go back to their pools
// when it returns, so a window allocates what it keeps and not what it
// reads through. Every run is checked against the block's table entry (its
// rank, and a running count of the records read, kept or stepped over,
// that may not pass the entry's and must equal it on the last run); a
// mismatch, or a block that does not decode, means the table lies about
// the file and surfaces as an ErrCorrupt-wrapped error, so callers can
// degrade to the full scan. A lie about a block's length can surface after
// fn has seen earlier runs of that block: what fn built is then to be
// thrown away. The file system's errors and fn's are returned as they are.
func scan(rs io.ReadSeeker, ix *Index, sel []int, q Query, fn func(clog2.Block) error) error {
	if len(sel) == 0 {
		return nil
	}
	for _, i := range sel {
		if i < 0 || i >= len(ix.Blocks) {
			return fmt.Errorf("idx: block selection %d out of range", i)
		}
	}
	br, err := clog2.NewBlockReaderAt(rs, ix.Blocks[sel[0]].Offset, ix.NumRanks)
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
			var read int32
			if run, read, last, err = br.NextRunIn(buf[:0], q.T0, q.T1); err != nil {
				if pe := (*fs.PathError)(nil); errors.As(err, &pe) {
					return err
				}
				return fmt.Errorf("%w: block %d at offset %d: %v", ErrCorrupt, i, bm.Offset, err)
			}
			n += read
			if run.Rank != bm.Rank || n > bm.Records || last && n != bm.Records {
				return fmt.Errorf("%w: block %d at offset %d does not match its table entry", ErrCorrupt, i, bm.Offset)
			}
			if err := fn(run); err != nil {
				return err
			}
		}
		pos = bm.Offset + bm.Length
	}
	return nil
}

// What bench/ still calls of the ".idx" sidecar this package used to write
// beside a log, each reduced to what it means now that the log carries its
// table. They go once ROADMAP 5(g) moves bench/ onto Load.

// BuildFile returns the table of the log at path: the one the log carries,
// or a scan's when it has none. Until ROADMAP 5(g).
func BuildFile(path string) (*Index, error) {
	if ix, err := Load(path); err == nil {
		return ix, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := clog2.ScanTable(f)
	return (*Index)(t), err
}

// WriteFileFor writes nothing: the log carries its table. Until ROADMAP
// 5(g).
func WriteFileFor(string, *Index) error { return nil }

// SidecarPath is the name the sidecar had beside clogPath; no file is
// written there. Until ROADMAP 5(g).
func SidecarPath(clogPath string) string { return clogPath + ".idx" }
