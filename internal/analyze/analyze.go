// The streaming collection pass: one BlockReader scan, or one clog2.Walk
// through the log's block table for a window, gathering what the post-run
// profile does not keep — per-(rank,state) outlier attribution,
// per-channel message timing, per-rank category self-times, and
// injected-fault events — plus the entry points that pair it with a
// reused or recomputed stats.Profile and run the detector catalogue over
// both.
package analyze

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

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
	// Self-time split one level finer than the profile's busy/blocked:
	// output-blocked is its own bucket because clean Pilot writes are
	// eager (≈0s), making it the dominator detector's zero-FP signal.
	outBlockedSec float64
	inBlockedSec  float64
	busySec       float64
	states        map[int32]*rankState
}

// rankState tracks one state's occurrences on one rank: enough to
// attribute a global outlier to its rank and start time.
type rankState struct {
	name     string
	count    int64
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
	opts     Options
	fold     *clog2.Fold
	numRanks int
	// prof observes the same fold when the profile has to come from the
	// same records; nil when a sidecar profile may stand in for it.
	prof *stats.Profiler

	ranks     []*rankPass // by FoldRank.Index
	msgs      clog2.Messages
	msgEvents int
	truncated bool
	faults    []faultEvent
}

func newCollector(opts Options, numRanks int, withProfile bool) *collector {
	c := &collector{opts: opts, fold: clog2.NewFold(opts.T0, opts.T1), numRanks: numRanks}
	if withProfile {
		c.prof = stats.NewProfiler(c.fold, numRanks)
	}
	return c
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
			st = &rankState{name: occ.Name}
			rp.states[occ.ID] = st
		}
		st.count++
		if occ.Dur > st.max {
			st.second = st.max
			st.max = occ.Dur
			st.maxStart = occ.Start
		} else if occ.Dur > st.second {
			st.second = occ.Dur
		}
		switch colors.CategoryOf(occ.Name) {
		case colors.Output:
			rp.outBlockedSec += occ.Self
		case colors.Input:
			rp.inBlockedSec += occ.Self
		default:
			rp.busySec += occ.Self
		}
	}
}

// block folds one block's records once, for the collector and, when
// there is one, the profiler.
func (c *collector) block(b clog2.Block) error {
	for i := range b.Records {
		rec := &b.Records[i]
		step := c.fold.Add(rec)
		c.observe(step, rec)
		if c.prof != nil {
			c.prof.Observe(step, rec)
		}
	}
	return nil
}

// scan reads every block of the CLOG-2 stream once.
func scan(r io.Reader, opts Options, withProfile bool) (*collector, error) {
	br, err := clog2.NewBlockReader(r)
	if err != nil {
		return nil, err
	}
	c := newCollector(opts, br.NumRanks(), withProfile)
	return c, br.Each(c.block)
}

// records is the number of records the fold counted.
func (c *collector) records() int64 {
	var n int64
	for _, fr := range c.fold.Ranks() {
		n += fr.Records
	}
	return n
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

// Analyze runs the detector catalogue over a CLOG-2 stream; the
// profile comes from the same pass. Use AnalyzeFile to reuse sidecars
// and the index.
func Analyze(r io.Reader, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	c, err := scan(r, opts, true)
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	return buildReport(c, c.prof.Profile(), "computed", false), nil
}

// AnalyzeBytes is Analyze over an in-memory CLOG-2 image.
func AnalyzeBytes(data []byte, opts Options) (*Report, error) {
	return Analyze(bytes.NewReader(data), opts)
}

// AnalyzeFile analyzes a CLOG-2 file. A windowed analysis makes one
// pass under clog2.Walk, collector and profiler on the same fold, so it
// reads only the blocks the log's block table selects when it has a valid
// one and every block otherwise. A whole-run analysis reads every block
// without opening the table, and reuses a matching "<base>.profile.json" sidecar
// (validated against the trace's own record count) instead of computing
// the profile.
func AnalyzeFile(path string, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if !math.IsInf(opts.T0, -1) || !math.IsInf(opts.T1, 1) {
		q := clog2.MatchAll()
		q.T0, q.T1, q.IncludeDefs = opts.T0, opts.T1, true
		var c *collector
		used, err := clog2.Walk(path, q, func(numRanks int) func(clog2.Block) error {
			c = newCollector(opts, numRanks, true)
			return c.block
		})
		if err != nil {
			return nil, fmt.Errorf("analyze: %s: %w", path, err)
		}
		return buildReport(c, c.prof.Profile(), "computed", used), nil
	}
	sidecar := sidecarProfile(path)
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	c, err := scan(fh, opts, sidecar == nil)
	fh.Close()
	if err != nil {
		return nil, fmt.Errorf("analyze: %s: %w", path, err)
	}
	switch {
	case sidecar == nil:
		return buildReport(c, c.prof.Profile(), "computed", false), nil
	case sidecar.Totals.Records == c.records():
		return buildReport(c, sidecar, "sidecar", false), nil
	}
	// The sidecar counts another log's records: profile this one.
	p, err := stats.ComputeProfileFile(path)
	if err != nil {
		return nil, fmt.Errorf("analyze: %s: profile: %w", path, err)
	}
	return buildReport(c, p, "computed", false), nil
}

// sidecarProfile loads "<base>.profile.json" next to a ".clog2" when
// it exists and parses; anything else returns nil.
func sidecarProfile(clogPath string) *stats.Profile {
	base, ok := strings.CutSuffix(clogPath, ".clog2")
	if !ok {
		return nil
	}
	data, err := os.ReadFile(base + ".profile.json")
	if err != nil {
		return nil
	}
	var p stats.Profile
	if err := json.Unmarshal(data, &p); err != nil || p.Schema != stats.ProfileSchema {
		return nil
	}
	return &p
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
