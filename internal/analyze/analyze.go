// The collection pass: one per-rank walk of the log (clog2.EachRank),
// through its block table when it is a file. Each rank's fold feeds the rank's
// share of the pass, which gathers what the post-run profile does not
// keep — per-(rank,state) outlier attribution, per-channel message
// timing, output-blocked self-time and injected-fault events — and its
// stats.RankProfiler, so the verdict and its profile come from the same
// records of the same log. The ranks merge in rank order.
package analyze

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"

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

// rankPass is one rank's share of the collection pass: its fold, the
// profile's observer on it, and what the detectors need of the rank.
type rankPass struct {
	fold   *clog2.Fold
	prof   *stats.RankProfiler
	etypes *clog2.Etypes
	// outBlockedSec is the rank's self-time in output states: clean
	// Pilot writes are eager (≈0s), making it the dominator detector's
	// zero-FP signal.
	outBlockedSec float64
	states        map[int32]*rankState

	msgs      clog2.Messages
	msgEvents int // the halves msgs holds, at most maxMsgs
	maxMsgs   int // the rank's share of Options.MaxMsgEvents
	truncated bool
	faults    []faultEvent
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

// observe accounts for rec, which the fold has just made step of.
func (rp *rankPass) observe(step clog2.Step, rec *clog2.Record) {
	switch step {
	case clog2.StepMsg:
		if rp.msgEvents >= rp.maxMsgs {
			rp.truncated = true
			return
		}
		rp.msgEvents++
		rp.msgs.Add(rec.Rank, rec.Aux1, rec.Aux2, rec.Dir, clog2.MsgHalf{Time: rec.Time, Size: rec.Aux3})
	case clog2.StepSolo:
		switch name := rp.etypes.EventName(rec.ID); name {
		case faultEventName, deadlockEventName:
			rp.faults = append(rp.faults, faultEvent{
				time:  rec.Time,
				rank:  rec.Rank,
				name:  name,
				cargo: rec.CargoText(),
			})
		}
	case clog2.StepClose:
		occ := &rp.fold.Closed
		st := rp.states[occ.ID]
		if st == nil {
			st = &rankState{name: rp.etypes.StateName(occ.ID)}
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

// Visit folds one of the rank's blocks once, for the pass and the
// profile.
func (rp *rankPass) Visit(b clog2.Block) error {
	for i := range b.Records {
		rec := &b.Records[i]
		step := rp.fold.Add(rec)
		rp.observe(step, rec)
		rp.prof.Observe(step, rec)
	}
	return nil
}

// collector is the collection pass, its ranks merged in rank order: the
// profile, the ranks that counted a record, every rank's message halves
// joined and its fault events in turn.
type collector struct {
	profile   *stats.Profile
	ranks     []*rankPass
	msgs      clog2.Messages
	truncated bool
	faults    []faultEvent
}

// collect folds [t0, t1] of the log in holds (math.Inf bounds for no
// limit) rank by rank on up to workers workers (clog2.EachRank), and says
// whether the log's block table selected the blocks.
func collect(in clog2.Input, opts Options, t0, t1 float64, workers int) (*collector, bool, error) {
	opts = opts.withDefaults()
	q := clog2.MatchAll()
	q.T0, q.T1 = t0, t1
	var pp *stats.Profiler
	ranks, used, err := clog2.EachRank(in, q, workers, func(numRanks int, defs []clog2.Record) func(int32) *rankPass {
		e := clog2.NewEtypes(defs)
		pp = stats.NewProfiler(e, numRanks, t0, t1)
		return func(rank int32) *rankPass {
			fold := clog2.NewFold(e, rank)
			return &rankPass{fold: fold, prof: pp.Rank(fold), etypes: e, maxMsgs: opts.msgShare(numRanks, rank), states: map[int32]*rankState{}}
		}
	})
	if err != nil {
		return nil, false, err
	}
	c := &collector{}
	profs := make([]*stats.RankProfiler, len(ranks))
	for i, rp := range ranks {
		profs[i] = rp.prof
		c.msgs.Join(&rp.msgs)
		c.truncated = c.truncated || rp.truncated
		c.faults = append(c.faults, rp.faults...)
		if rp.fold.Records > 0 {
			c.ranks = append(c.ranks, rp)
		}
	}
	c.profile = pp.Profile(profs)
	return c, used, nil
}

// wall is the whole-trace record time span; both zero when nothing was
// counted.
func (c *collector) wall() (first, last float64) {
	for i, rp := range c.ranks {
		if i == 0 || rp.fold.First < first {
			first = rp.fold.First
		}
		if i == 0 || rp.fold.Last > last {
			last = rp.fold.Last
		}
	}
	return first, last
}

// Analyze runs the detector catalogue over the whole run in a CLOG-2
// log, read as a stream in one pass; the profile comes from the same pass.
// A file is read rank by rank through its block table (AnalyzeFile), to
// the same verdict. The error is the log's.
func Analyze(r io.Reader, opts Options) (*Report, error) {
	c, _, err := collect(clog2.StreamInput(r), opts, math.Inf(-1), math.Inf(1), 1)
	if err != nil {
		return nil, err
	}
	return buildReport(c, false), nil
}

// AnalyzeFile is Analyze over the CLOG-2 file at path, read rank by rank
// through its block table on GOMAXPROCS workers (clog2.FileInput; the
// table ScanTable makes when the log has no usable one).
func AnalyzeFile(path string, opts Options) (*Report, error) {
	c, _, err := collectFile(path, opts, math.Inf(-1), math.Inf(1))
	if err != nil {
		return nil, err
	}
	return buildReport(c, false), nil
}

// AnalyzeFileWindowed analyzes the CLOG-2 file at path over the
// inclusive window [t0, t1] (math.Inf bounds for no limit), like
// stats.ComputeProfileFileWindowed: one pass reads only the blocks the
// log's block table selects when it has a usable one, and every block
// otherwise. An unbounded window is AnalyzeFile.
func AnalyzeFileWindowed(path string, t0, t1 float64) (*Report, error) {
	if math.IsInf(t0, -1) && math.IsInf(t1, 1) {
		return AnalyzeFile(path, Options{})
	}
	c, used, err := collectFile(path, Options{}, t0, t1)
	if err != nil {
		return nil, err
	}
	return buildReport(c, used), nil
}

// collectFile is collect over the CLOG-2 file at path, on GOMAXPROCS
// workers; the log's error is named by the path.
func collectFile(path string, opts Options, t0, t1 float64) (*collector, bool, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer fh.Close()
	in, err := clog2.FileInput(fh)
	if err != nil {
		return nil, false, err
	}
	c, used, err := collect(in, opts, t0, t1, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, false, fmt.Errorf("analyze: %s: %w", path, err)
	}
	return c, used, nil
}
