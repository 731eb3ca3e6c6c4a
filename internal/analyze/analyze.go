// The streaming collection pass: one BlockReader scan of the whole run,
// or one clog2.Walk through the log's block table for a window. One fold
// feeds the collector, which gathers what the post-run profile does not
// keep — per-(rank,state) outlier attribution, per-channel message
// timing, output-blocked self-time and injected-fault events — and a
// stats.Profiler, so the verdict and its profile come from the same
// records of the same log.
package analyze

import (
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/clog2"
	"repro/internal/colors"
	"repro/internal/stats"
)

// faultEventName / deadlockEventName are the runtime's solo-event
// definitions for injected faults and deadlock diagnoses.
const (
	faultEventName    = "FaultInjected"
	deadlockEventName = "Deadlock"
)

// rankPass accumulates one rank's analyzer-side numbers.
type rankPass struct {
	// fr carries the rank's id, record count and wall span.
	fr *clog2.FoldRank
	// outBlockedSec is the rank's self-time in output states: clean
	// Pilot writes are eager (≈0s), making it the dominator detector's
	// zero-FP signal.
	outBlockedSec float64
	states        map[int32]*rankState
}

// rankState tracks one state's occurrences on one rank: enough to
// attribute a global outlier to its rank and start time.
type rankState struct {
	name     string
	max      float64
	maxStart float64
	second   float64
}

// faultEvent is one FaultInjected/Deadlock solo event from the trace.
type faultEvent struct {
	time  float64
	rank  int32
	name  string // event def name
	cargo string
}

// collector is the analyzer's observer on a clog2.Fold: the fold
// decides which records count and pairs the states, the collector keeps
// what the detectors need about them.
type collector struct {
	opts Options
	fold *clog2.Fold
	// prof observes the same fold, so the profile counts the same records.
	prof *stats.Profiler

	ranks     []*rankPass // by FoldRank.Index
	msgs      clog2.Messages
	msgEvents int
	truncated bool
	faults    []faultEvent
}

// newCollector folds the records a reader hands it over [t0, t1]
// (math.Inf bounds for no limit), the window its profile states.
func newCollector(opts Options, t0, t1 float64, numRanks int) *collector {
	fold := clog2.NewFold()
	return &collector{opts: opts.withDefaults(), fold: fold, prof: stats.NewProfiler(fold, numRanks, t0, t1)}
}

// observe accounts for rec, which the fold has just made step of.
func (c *collector) observe(step clog2.Step, rec *clog2.Record) {
	if step == clog2.StepSkip {
		return
	}
	fr := c.fold.Rank
	if fr.Index == len(c.ranks) {
		c.ranks = append(c.ranks, &rankPass{fr: fr, states: map[int32]*rankState{}})
	}
	switch step {
	case clog2.StepMsg:
		if c.msgEvents >= c.opts.MaxMsgEvents {
			c.truncated = true
			return
		}
		c.msgEvents++
		c.msgs.Add(rec.Rank, rec.Aux1, rec.Aux2, rec.Dir, clog2.MsgHalf{Time: rec.Time, Size: rec.Aux3})
	case clog2.StepSolo:
		switch name := c.fold.EventName(rec.ID); name {
		case faultEventName, deadlockEventName:
			c.faults = append(c.faults, faultEvent{
				time:  rec.Time,
				rank:  rec.Rank,
				name:  name,
				cargo: rec.CargoText(),
			})
		}
	case clog2.StepClose:
		rp, occ := c.ranks[fr.Index], &c.fold.Closed
		st := rp.states[occ.ID]
		if st == nil {
			st = &rankState{name: c.fold.StateName(occ.ID)}
			rp.states[occ.ID] = st
		}
		if occ.Dur > st.max {
			st.second = st.max
			st.max = occ.Dur
			st.maxStart = occ.Start
		} else if occ.Dur > st.second {
			st.second = occ.Dur
		}
		if colors.CategoryOf(st.name) == colors.Output {
			rp.outBlockedSec += occ.Self
		}
	}
}

// block folds one block's records once, for the collector and the
// profiler.
func (c *collector) block(b clog2.Block) error {
	for i := range b.Records {
		rec := &b.Records[i]
		step := c.fold.Add(rec)
		c.observe(step, rec)
		c.prof.Observe(step, rec)
	}
	return nil
}

// scan reads every block of the CLOG-2 stream once, folding [t0, t1].
func scan(r io.Reader, opts Options, t0, t1 float64) (*collector, error) {
	br, err := clog2.NewBlockReader(r)
	if err != nil {
		return nil, err
	}
	q := clog2.MatchAll()
	q.T0, q.T1 = t0, t1
	c := newCollector(opts, t0, t1, br.NumRanks())
	return c, br.EachIn(q, c.block)
}

// wall is the whole-trace record time span; both zero when nothing was
// counted.
func (c *collector) wall() (first, last float64) {
	for i, fr := range c.fold.Ranks() {
		if i == 0 || fr.First < first {
			first = fr.First
		}
		if i == 0 || fr.Last > last {
			last = fr.Last
		}
	}
	return first, last
}

// Analyze runs the detector catalogue over the whole run in a CLOG-2
// stream; the profile comes from the same pass. The error is the stream's.
func Analyze(r io.Reader, opts Options) (*Report, error) {
	c, err := scan(r, opts, math.Inf(-1), math.Inf(1))
	if err != nil {
		return nil, err
	}
	return buildReport(c, false), nil
}

// AnalyzeFile is Analyze over the CLOG-2 file at path. It reads every
// block without opening the block table.
func AnalyzeFile(path string, opts Options) (*Report, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	rep, err := Analyze(fh, opts)
	if err != nil {
		return nil, fmt.Errorf("analyze: %s: %w", path, err)
	}
	return rep, nil
}

// AnalyzeFileWindowed analyzes the CLOG-2 file at path over the
// inclusive window [t0, t1] (math.Inf bounds for no limit), like
// stats.ComputeProfileFileWindowed: one pass under clog2.Walk reads only
// the blocks the log's block table selects when it has a valid one, and
// every block otherwise. An unbounded window is AnalyzeFile.
func AnalyzeFileWindowed(path string, t0, t1 float64) (*Report, error) {
	if math.IsInf(t0, -1) && math.IsInf(t1, 1) {
		return AnalyzeFile(path, Options{})
	}
	q := clog2.MatchAll()
	q.T0, q.T1 = t0, t1
	var c *collector
	used, err := clog2.Walk(path, q, func(numRanks int) func(clog2.Block) error {
		c = newCollector(Options{}, t0, t1, numRanks)
		return c.block
	})
	if err != nil {
		return nil, fmt.Errorf("analyze: %s: %w", path, err)
	}
	return buildReport(c, used), nil
}
