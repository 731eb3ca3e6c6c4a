// Trace diffing: align two runs of the same program by per-rank
// operation sequence and localize the first divergence — Okita et
// al.'s debugging approach, made exact here by the runtime's
// deterministic replay. Sequences are normalized the way the chaos
// suite's replay determinism is stated: wall-clock timestamps,
// clock-sync TimeShift records, and definition metadata are dropped,
// leaving the per-rank order of events, state transitions and message
// halves — the part of a trace that is a pure function of (program,
// seed) for deterministic workloads.
package analyze

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/clog2"
)

// DiffSchema versions the DiffReport JSON.
const DiffSchema = "pilot-analyze-diff/1"

// DiffOptions tunes the diff.
type DiffOptions struct {
	// Context is how many ops of surrounding context each divergence
	// carries (default 3).
	Context int
}

func (o DiffOptions) withDefaults() DiffOptions {
	if o.Context == 0 {
		o.Context = 3
	}
	return o
}

// Divergence is one rank's first point of disagreement.
type Divergence struct {
	Rank int `json:"rank"`
	// Op is the index into the rank's normalized op sequence where the
	// two runs first disagree.
	Op int `json:"op"`
	// Kind is "mismatch" (both have an op there, different), "a-short"
	// / "b-short" (one run's sequence ends early — truncation), or
	// "a-missing-rank" / "b-missing-rank" (the rank logged nothing at
	// all in one run).
	Kind string `json:"kind"`
	// A and B are the normalized ops at the divergence ("" past the
	// end of a truncated sequence).
	A string `json:"a,omitempty"`
	B string `json:"b,omitempty"`
	// ContextA/ContextB are the ops surrounding the divergence
	// (including it), one line per op, prefixed with its index.
	ContextA []string `json:"context_a,omitempty"`
	ContextB []string `json:"context_b,omitempty"`
	// LenA/LenB are the full sequence lengths.
	LenA int `json:"len_a"`
	LenB int `json:"len_b"`
}

// DiffReport is the schema-versioned diff document.
type DiffReport struct {
	Schema string `json:"schema"`
	// FileA/FileB are base names only, so reports are path-independent.
	FileA     string `json:"file_a"`
	FileB     string `json:"file_b"`
	Identical bool   `json:"identical"`
	// Divergences holds each diverging rank's first divergence,
	// ordered by rank.
	Divergences []Divergence `json:"divergences"`
	// First is the divergence with the smallest op index (ties to the
	// smallest rank) — the localized first faulty rank/op.
	First *Divergence `json:"first,omitempty"`
}

// logFile is a log the diff reads: it seeks to a rank's blocks and reads
// the block table at the end.
type logFile interface {
	io.ReadSeeker
	io.ReaderAt
}

// cursor walks one log rank by rank: a block holds one rank's records in
// time order (clog2.Block), so a rank's ops are its blocks' in file order,
// found through the log's block table.
type cursor struct {
	f       logFile
	label   string       // names the log in errors
	t       *clog2.Table // entries sorted by rank, in file order within one
	scanned bool         // t is ScanTable's, so it cannot lie
	lied    bool         // a block did not match t's entry for it
	br      *clog2.BlockReader
	next    int            // the entry of the next block to read
	buf     []clog2.Record // the block in hand, in a buffer lent by clog2
	recs    []clog2.Record // its records not yet read
	back    func()         // gives buf back
}

// open takes the log's block table: the one it ends with when that
// validates and scan is false, else the one ScanTable makes of it. A log
// that cannot be read to its end-log marker ends the diff with that error.
func (c *cursor) open(scan bool) error {
	c.t, c.lied = nil, false
	if !scan {
		size, err := c.f.Seek(0, io.SeekEnd)
		if err != nil {
			return err
		}
		c.t, _ = clog2.ReadTable(c.f, size) // why it has none is the scan's to find
	}
	if c.scanned = c.t == nil; c.scanned {
		if _, err := c.f.Seek(0, io.SeekStart); err != nil {
			return err
		}
		t, err := clog2.ScanTable(c.f)
		if err != nil {
			return fmt.Errorf("analyze: diff %s: %w", c.label, err)
		}
		c.t = t
	}
	slices.SortStableFunc(c.t.Blocks, func(a, b clog2.BlockMeta) int { return cmp.Compare(a.Rank, b.Rank) })
	return nil
}

// rewind puts the cursor before rank 0's first block, with a reader and a
// block buffer of its own: a rank's last stamp is held across its blocks
// only.
func (c *cursor) rewind() (err error) {
	c.release()
	c.next = 0
	c.buf, c.back = clog2.LendBlockBuffer()
	c.br, err = clog2.NewBlockReaderAt(c.f, int64(clog2.HeaderSize), c.t.NumRanks)
	return err
}

// release gives the reader's decode buffer and the block buffer back to
// their pools.
func (c *cursor) release() {
	if c.br != nil {
		c.br.Release()
		c.br = nil
	}
	if c.back != nil {
		c.back()
		c.buf, c.recs, c.back = nil, nil, nil
	}
}

// op returns rank's next op, or nil once its blocks are read: events,
// state transitions and message halves; definitions and timeshifts are
// metadata and excluded. The op is the record with its times zeroed and
// its cargo past CargoLen cleared, so two ops are the same op exactly when
// they are ==. It is valid until the next call.
func (c *cursor) op(rank int32) (*clog2.Record, error) {
	for {
		for len(c.recs) > 0 {
			rec := &c.recs[0]
			c.recs = c.recs[1:]
			switch rec.Type {
			case clog2.RecBareEvt, clog2.RecCargoEvt, clog2.RecMsgEvt:
				rec.Time, rec.Shift = 0, 0
				clear(rec.Cargo[rec.CargoLen:])
				return rec, nil
			}
		}
		if c.next == len(c.t.Blocks) || c.t.Blocks[c.next].Rank != rank {
			return nil, nil
		}
		b, err := c.br.NextAt(c.buf[:0], clog2.MatchAll(), &c.t.Blocks[c.next])
		if err != nil {
			c.lied = !c.scanned && errors.Is(err, clog2.ErrCorrupt)
			return nil, fmt.Errorf("analyze: diff %s: %w", c.label, err)
		}
		c.next++
		c.buf, c.recs = b.Records[:0], b.Records
	}
}

// differ diffs two logs rank against rank; sides are 0 = A, 1 = B.
type differ struct {
	context int
	sides   [2]*cursor
	recent  []clog2.Record // ring of the rank's last matched ops: op i is in slot i mod context
}

// run diffs every rank of either log's header, from rank 0 on. A table
// entry no rank reached lies about its rank.
func (d *differ) run() (*DiffReport, error) {
	rep := &DiffReport{Schema: DiffSchema, FileA: d.sides[0].label, FileB: d.sides[1].label, Divergences: []Divergence{}}
	for _, c := range d.sides {
		if err := c.rewind(); err != nil {
			return nil, err
		}
	}
	for rank := range int32(max(d.sides[0].t.NumRanks, d.sides[1].t.NumRanks)) {
		dv, err := d.rank(rank)
		if err != nil {
			return nil, err
		}
		if dv != nil {
			rep.Divergences = append(rep.Divergences, *dv)
		}
	}
	for _, c := range d.sides {
		if c.next < len(c.t.Blocks) {
			c.lied = !c.scanned
			return nil, fmt.Errorf("analyze: diff %s: %w: an entry of rank %d", c.label, clog2.ErrCorrupt, c.t.Blocks[c.next].Rank)
		}
	}
	rep.Identical = len(rep.Divergences) == 0
	if !rep.Identical {
		// In rank order, so the earliest op ties to the smallest rank.
		first := rep.Divergences[0]
		for _, dv := range rep.Divergences[1:] {
			if dv.Op < first.Op {
				first = dv
			}
		}
		rep.First = &first
	}
	return rep, nil
}

// rank compares the two sides' ops of rank in order and returns its first
// divergence, nil when they agree.
func (d *differ) rank(rank int32) (*Divergence, error) {
	d.recent = d.recent[:0]
	var ops [2]*clog2.Record
	for i := 0; ; i++ {
		for s, c := range d.sides {
			var err error
			if ops[s], err = c.op(rank); err != nil {
				return nil, err
			}
		}
		switch {
		case ops[0] == nil && ops[1] == nil:
			return nil, nil
		case ops[0] == nil || ops[1] == nil || *ops[0] != *ops[1]:
			return d.diverge(rank, i, ops)
		case i < d.context:
			d.recent = append(d.recent, *ops[0])
		case d.context > 0:
			d.recent[i%d.context] = *ops[0]
		}
	}
}

// diverge fixes rank's divergence at op i, where ops holds each side's op,
// nil on a side whose ops have ended (truncation; at op 0 a missing rank).
// The ring gives both sides the leading context; each side's ops from i on
// are counted, and up to context of them after i are its trailing context.
func (d *differ) diverge(rank int32, i int, ops [2]*clog2.Record) (*Divergence, error) {
	dv := &Divergence{Rank: int(rank), Op: i, Kind: "mismatch"}
	for s, op := range ops {
		if op == nil {
			dv.Kind = "ab"[s:s+1] + "-short"
			if i == 0 {
				dv.Kind = "ab"[s:s+1] + "-missing-rank"
			}
		}
	}
	for s, c := range d.sides {
		sig, lines, n := &dv.A, &dv.ContextA, &dv.LenA
		if s == 1 {
			sig, lines, n = &dv.B, &dv.ContextB, &dv.LenB
		}
		for k := max(0, i-d.context); k < i; k++ {
			*lines = append(*lines, opLine(' ', k, &d.recent[k%d.context]))
		}
		*n = i
		for op := ops[s]; op != nil; *n++ {
			marker := byte(' ')
			if *n == i {
				*sig, marker = signature(op), '>'
			}
			if *n <= i+d.context {
				*lines = append(*lines, opLine(marker, *n, op))
			}
			var err error
			if op, err = c.op(rank); err != nil {
				return nil, err
			}
		}
	}
	return dv, nil
}

// opLine is op k's context line, marked when it is the divergence itself.
func opLine(marker byte, k int, op *clog2.Record) string {
	return fmt.Sprintf("%c op %d: %s", marker, k, signature(op))
}

// signature renders an op as the timestamp-free text a report shows. Only
// a divergence and its context lines are ever rendered.
func signature(r *clog2.Record) string {
	return fmt.Sprintf("%s|%d|%d|%d|%d|%d|%s|%s|%s",
		r.Type, r.ID, r.Aux1, r.Aux2, r.Aux3, r.Dir, r.Name, r.Color, r.CargoBytes())
}

// diffLogs diffs two logs rank against rank, a block of each at a time.
// When a table that validated lies about a block, the diff starts again
// with the table ScanTable makes of that log, as clog2.Walk falls back to
// the scan. A log that cannot be read ends the diff with its error, under
// its label.
func diffLogs(fa, fb logFile, labelA, labelB string, opts DiffOptions) (*DiffReport, error) {
	d := &differ{context: opts.withDefaults().Context, sides: [2]*cursor{{f: fa, label: labelA}, {f: fb, label: labelB}}}
	for _, c := range d.sides {
		defer c.release()
		if err := c.open(false); err != nil {
			return nil, err
		}
	}
	for {
		rep, err := d.run()
		if !d.sides[0].lied && !d.sides[1].lied {
			return rep, err
		}
		for _, c := range d.sides {
			if c.lied {
				if err := c.open(true); err != nil {
					return nil, err
				}
			}
		}
	}
}

// DiffFiles diffs two CLOG-2 files.
func DiffFiles(pathA, pathB string, opts DiffOptions) (*DiffReport, error) {
	fa, err := os.Open(pathA)
	if err != nil {
		return nil, err
	}
	defer fa.Close()
	fb, err := os.Open(pathB)
	if err != nil {
		return nil, err
	}
	defer fb.Close()
	rep, err := diffLogs(fa, fb, pathA, pathB, opts)
	if err != nil {
		return nil, err
	}
	rep.FileA, rep.FileB = filepath.Base(pathA), filepath.Base(pathB)
	return rep, nil
}

// JSON renders the diff report indented with a trailing newline.
func (d *DiffReport) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Format renders the diff report as human-readable text.
func (d *DiffReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pilot-analyze diff (%s)\n%s vs %s\n", d.Schema, d.FileA, d.FileB)
	if d.Identical {
		b.WriteString("identical: per-rank op sequences agree\n")
		return b.String()
	}
	f := d.First
	fmt.Fprintf(&b, "first divergence: rank %d op %d (%s)\n", f.Rank, f.Op, f.Kind)
	for _, dv := range d.Divergences {
		fmt.Fprintf(&b, "rank %d diverges at op %d (%s; %d vs %d ops)\n",
			dv.Rank, dv.Op, dv.Kind, dv.LenA, dv.LenB)
		if len(dv.ContextA) > 0 {
			fmt.Fprintf(&b, "  %s:\n", d.FileA)
			for _, l := range dv.ContextA {
				fmt.Fprintf(&b, "    %s\n", l)
			}
		}
		if len(dv.ContextB) > 0 {
			fmt.Fprintf(&b, "  %s:\n", d.FileB)
			for _, l := range dv.ContextB {
				fmt.Fprintf(&b, "    %s\n", l)
			}
		}
	}
	return b.String()
}
