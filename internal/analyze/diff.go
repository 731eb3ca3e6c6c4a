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
	"runtime"
	"slices"
	"strings"
	"sync"

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

// side is one log's rank in hand: a cursor on its blocks (a block holds
// one rank's records in time order, clog2.Block, so a rank's ops are its
// blocks' in file order) and the records of the block it reads.
type side struct {
	c    *clog2.RankCursor
	recs []clog2.Record // the block's records not yet read
}

// op returns the rank's next op, or nil once its blocks are read: events,
// state transitions and message halves; definitions and timeshifts are
// metadata and excluded. The op is the record with its times zeroed and
// its cargo past CargoLen cleared, so two ops are the same op exactly when
// they are ==. It is valid until the next call.
func (s *side) op() (*clog2.Record, error) {
	for {
		for len(s.recs) > 0 {
			rec := &s.recs[0]
			s.recs = s.recs[1:]
			switch rec.Type {
			case clog2.RecBareEvt, clog2.RecCargoEvt, clog2.RecMsgEvt:
				rec.Time, rec.Shift = 0, 0
				clear(rec.Cargo[rec.CargoLen:])
				return rec, nil
			}
		}
		b, err := s.c.Next()
		if err == io.EOF {
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		s.recs = b.Records
	}
}

// differ diffs one rank of two logs; sides are 0 = A, 1 = B.
type differ struct {
	context int
	sides   [2]side
	recent  []clog2.Record // ring of the rank's last matched ops: op i is in slot i mod context
}

// rank compares the two sides' ops of rank in order and returns its first
// divergence, nil when they agree.
func (d *differ) rank(rank int32) (*Divergence, error) {
	var ops [2]*clog2.Record
	for i := 0; ; i++ {
		for s := range d.sides {
			var err error
			if ops[s], err = d.sides[s].op(); err != nil {
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
	for s := range d.sides {
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
			if op, err = d.sides[s].op(); err != nil {
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

// diffLogs diffs two logs rank against rank, every rank of either
// header, on up to workers workers: a per-rank walk of the two together
// (clog2.WalkRanks), which reads each log through its block table and,
// when a table that validated lies about a block, through the table
// ScanTable makes of that log. A log that cannot be read ends the diff
// with its error, under its label.
func diffLogs(srcs [2]clog2.Source, labels [2]string, opts DiffOptions, workers int) (*DiffReport, error) {
	context := opts.withDefaults().Context
	var mu sync.Mutex
	var divs []Divergence
	_, err := clog2.WalkRanks(srcs[:], clog2.MatchAll(), workers, func(logs []*clog2.RankLog) (int, func(int, []*clog2.RankCursor) error) {
		divs = nil
		return max(logs[0].NumRanks, logs[1].NumRanks), func(i int, cs []*clog2.RankCursor) error {
			d := differ{context: context}
			for s, c := range cs {
				c.Open(int32(i))
				d.sides[s].c = c
			}
			dv, err := d.rank(int32(i))
			if dv != nil {
				mu.Lock()
				divs = append(divs, *dv)
				mu.Unlock()
			}
			return err
		}
	})
	if le := (*clog2.LogError)(nil); errors.As(err, &le) {
		return nil, fmt.Errorf("analyze: diff %s: %w", labels[le.Log], le.Err)
	}
	if err != nil {
		return nil, err
	}
	slices.SortFunc(divs, func(a, b Divergence) int { return cmp.Compare(a.Rank, b.Rank) })
	rep := &DiffReport{Schema: DiffSchema, FileA: labels[0], FileB: labels[1], Divergences: divs, Identical: len(divs) == 0}
	if rep.Divergences == nil {
		rep.Divergences = []Divergence{}
	}
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

// DiffFiles diffs two CLOG-2 files rank against rank, on GOMAXPROCS
// workers.
func DiffFiles(pathA, pathB string, opts DiffOptions) (*DiffReport, error) {
	var srcs [2]clog2.Source
	for i, path := range []string{pathA, pathB} {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		info, err := f.Stat()
		if err != nil {
			return nil, err
		}
		srcs[i] = clog2.Source{R: f, Size: info.Size()}
	}
	rep, err := diffLogs(srcs, [2]string{pathA, pathB}, opts, runtime.GOMAXPROCS(0))
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
