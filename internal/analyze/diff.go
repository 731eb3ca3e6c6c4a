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
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
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

// appendOpKey appends rec's normalized op in packed form: the nine
// fields the chaos suite's replay-determinism assertions compare, the
// numbers at fixed offsets and the three texts length-prefixed. Two ops
// are the same op exactly when their keys are the same bytes.
func appendOpKey(dst []byte, rec *clog2.Record) []byte {
	dst = append(dst, byte(rec.Type), rec.Dir)
	for _, v := range [...]int32{rec.ID, rec.Aux1, rec.Aux2, rec.Aux3} {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	for _, s := range [...]string{rec.Name, rec.Color} {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	dst = append(dst, rec.CargoLen)
	return append(dst, rec.CargoBytes()...)
}

// opSignature renders a packed op as the timestamp-free text a report
// shows. Only the context lines of a divergence are ever rendered.
func opSignature(key []byte) string {
	var nums [4]int32
	for i := range nums {
		nums[i] = int32(binary.LittleEndian.Uint32(key[2+4*i:]))
	}
	rest := key[18:]
	var texts [2][]byte
	for i := range texts {
		n, w := binary.Uvarint(rest)
		texts[i], rest = rest[w:w+int(n)], rest[w+int(n):]
	}
	return fmt.Sprintf("%s|%d|%d|%d|%d|%d|%s|%s|%s", clog2.RecType(key[0]),
		nums[0], nums[1], nums[2], nums[3], key[1], texts[0], texts[1], rest[1:])
}

// opQueue is a FIFO of packed ops in one reusable buffer, each framed
// by its length.
type opQueue struct {
	buf  []byte
	head int // offset of the oldest op's frame
	n    int // ops queued
}

func (q *opQueue) push(rec *clog2.Record) {
	if q.n == 0 {
		q.buf, q.head = q.buf[:0], 0
	} else if q.head > len(q.buf)/2 {
		// Mostly consumed: slide the rest down instead of growing.
		q.buf = q.buf[:copy(q.buf, q.buf[q.head:])]
		q.head = 0
	}
	at := len(q.buf)
	q.buf = appendOpKey(append(q.buf, 0, 0, 0, 0), rec)
	binary.LittleEndian.PutUint32(q.buf[at:], uint32(len(q.buf)-at-4))
	q.n++
}

// pop returns the oldest op; the slice is valid until the next push.
func (q *opQueue) pop() []byte {
	at := q.head + 4
	end := at + int(binary.LittleEndian.Uint32(q.buf[q.head:]))
	q.head = end
	q.n--
	return q.buf[at:end]
}

// rankDiff is one rank's alignment state. Until the rank diverges the
// two sides' ops are compared pairwise in order: the side that is ahead
// waits in pending, and the last Context matched ops (the same on both
// sides) are kept for the report. After the divergence ops are only
// counted, the first Context of each side going into the report.
type rankDiff struct {
	n       [2]int // ops seen per side
	pending opQueue
	ahead   int      // the side pending belongs to
	recent  [][]byte // ring of the last matched ops: op i is in slot i mod Context
	div     *Divergence
	owed    [2]int // context lines each side may still add after the divergence
}

// differ aligns two logs as their blocks arrive; sides are 0 = A, 1 = B.
type differ struct {
	context int
	ranks   map[int32]*rankDiff
	ended   [2]bool // the side has been read to its end
	key     []byte  // scratch for the op in hand
}

// rank is the alignment of rank's ops, looked up once a block: a block
// holds one rank's records (clog2.Block).
func (d *differ) rank(rank int32) *rankDiff {
	rd := d.ranks[rank]
	if rd == nil {
		rd = &rankDiff{}
		d.ranks[rank] = rd
	}
	return rd
}

// op takes the next op of one side, of rank rd.
func (d *differ) op(side int, rd *rankDiff, rec *clog2.Record) {
	i := rd.n[side]
	rd.n[side]++
	switch {
	case rd.div != nil:
		if rd.owed[side] > 0 {
			d.key = appendOpKey(d.key[:0], rec)
			rd.trail(side, i, d.key)
		}
	case rd.pending.n > 0 && rd.ahead != side:
		d.key = appendOpKey(d.key[:0], rec)
		theirs := rd.pending.pop()
		if !bytes.Equal(theirs, d.key) {
			rd.diverge(d.context, rec.Rank, i, "mismatch", side, d.key, theirs)
		} else if d.context > 0 {
			if i < d.context {
				rd.recent = append(rd.recent, nil)
			}
			slot := &rd.recent[i%d.context]
			*slot = append((*slot)[:0], d.key...)
		}
	case d.ended[1-side]:
		// Nothing is pending and the other side is over: it stops short.
		d.key = appendOpKey(d.key[:0], rec)
		rd.diverge(d.context, rec.Rank, i, shortKind(1-side, i), side, d.key, nil)
	default:
		rd.pending.push(rec)
		rd.ahead = side
	}
}

// end marks one side as read to its end: it stops short on every rank
// the other side is ahead on.
func (d *differ) end(side int) {
	d.ended[side] = true
	for rank, rd := range d.ranks {
		if rd.div == nil && rd.pending.n > 0 && rd.ahead != side {
			i := rd.n[side]
			rd.diverge(d.context, rank, i, shortKind(side, i), rd.ahead, rd.pending.pop(), nil)
		}
	}
}

// shortKind names the divergence of a side whose sequence ends at op i.
func shortKind(side, i int) string {
	if i == 0 {
		return "ab"[side:side+1] + "-missing-rank"
	}
	return "ab"[side:side+1] + "-short"
}

// diverge records the rank's first divergence, at op i: mine is side's
// op there and theirs the other side's, nil when that side has ended.
// What is still pending follows op i on the side that is ahead.
func (rd *rankDiff) diverge(context int, rank int32, i int, kind string, side int, mine, theirs []byte) {
	dv := &Divergence{Rank: int(rank), Op: i, Kind: kind}
	rd.div = dv
	var ops [2][]byte
	ops[side], ops[1-side] = mine, theirs
	if ops[0] != nil {
		dv.A = opSignature(ops[0])
	}
	if ops[1] != nil {
		dv.B = opSignature(ops[1])
	}
	if context > 0 {
		for k := max(0, i-context); k < i; k++ {
			dv.addLine(0, ' ', k, rd.recent[k%context])
			dv.addLine(1, ' ', k, rd.recent[k%context])
		}
		for s, key := range ops {
			if key != nil {
				dv.addLine(s, '>', i, key)
				rd.owed[s] = context
			}
		}
	}
	rd.recent = nil
	for k := i + 1; rd.pending.n > 0; k++ {
		rd.trail(rd.ahead, k, rd.pending.pop())
	}
	rd.pending = opQueue{}
}

// trail adds an op after the divergence to side's context while that
// side is still owed lines.
func (rd *rankDiff) trail(side, k int, key []byte) {
	if rd.owed[side] > 0 {
		rd.owed[side]--
		rd.div.addLine(side, ' ', k, key)
	}
}

// addLine appends op k to one side's context, one line per op,
// prefixed with its index and marked when it is the divergence itself.
func (dv *Divergence) addLine(side int, marker byte, k int, key []byte) {
	lines := &dv.ContextA
	if side == 1 {
		lines = &dv.ContextB
	}
	*lines = append(*lines, fmt.Sprintf("%c op %d: %s", marker, k, opSignature(key)))
}

// report closes the alignment once both sides have ended.
func (d *differ) report(nameA, nameB string) *DiffReport {
	rep := &DiffReport{
		Schema:      DiffSchema,
		FileA:       nameA,
		FileB:       nameB,
		Divergences: []Divergence{},
	}
	for _, rd := range d.ranks {
		if rd.div != nil {
			rd.div.LenA, rd.div.LenB = rd.n[0], rd.n[1]
			rep.Divergences = append(rep.Divergences, *rd.div)
		}
	}
	sort.Slice(rep.Divergences, func(i, j int) bool { return rep.Divergences[i].Rank < rep.Divergences[j].Rank })
	rep.Identical = len(rep.Divergences) == 0
	if !rep.Identical {
		first := rep.Divergences[0]
		for _, dv := range rep.Divergences[1:] {
			if dv.Op < first.Op || (dv.Op == first.Op && dv.Rank < first.Rank) {
				first = dv
			}
		}
		rep.First = &first
	}
	return rep
}

// diffSide is one of the two logs being read.
type diffSide struct {
	br    *clog2.BlockReader
	label string         // names the log in errors
	recs  []clog2.Record // NextReuse's buffer
	ops   int            // ops read so far
}

// next reads one block and hands its ops to d: events, state
// transitions and message halves in rank order; definitions, timeshifts
// and block markers are metadata and excluded.
func (s *diffSide) next(d *differ, side int) error {
	b, err := s.br.NextReuse(s.recs)
	if err == io.EOF {
		d.end(side)
		return nil
	}
	if err != nil {
		return fmt.Errorf("analyze: diff %s: %w", s.label, err)
	}
	s.recs = b.Records[:0]
	rd := d.rank(b.Rank)
	for i := range b.Records {
		rec := &b.Records[i]
		switch rec.Type {
		case clog2.RecBareEvt, clog2.RecCargoEvt, clog2.RecMsgEvt:
			d.op(side, rd, rec)
			s.ops++
		}
	}
	return nil
}

// diffStreams aligns two CLOG-2 streams, reading them a block at a time
// and always from the side that has shown fewer ops, so that what waits
// to be compared is at most a block (clog2.MaxBlockRecords records), not
// a rank and not a log. The first unreadable block of either log ends the
// diff with an error.
func diffStreams(ra, rb io.Reader, labelA, labelB string, opts DiffOptions) (*DiffReport, error) {
	sides := [2]diffSide{{label: labelA}, {label: labelB}}
	for side, r := range [2]io.Reader{ra, rb} {
		br, err := clog2.NewBlockReader(r)
		if err != nil {
			return nil, fmt.Errorf("analyze: diff %s: %w", sides[side].label, err)
		}
		sides[side].br = br
	}
	d := &differ{context: opts.withDefaults().Context, ranks: map[int32]*rankDiff{}}
	for !d.ended[0] || !d.ended[1] {
		side := 0
		if d.ended[0] || (!d.ended[1] && sides[1].ops < sides[0].ops) {
			side = 1
		}
		if err := sides[side].next(d, side); err != nil {
			return nil, err
		}
	}
	return d.report(labelA, labelB), nil
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
	rep, err := diffStreams(fa, fb, pathA, pathB, opts)
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
