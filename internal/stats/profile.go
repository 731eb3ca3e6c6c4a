// The post-run half of the observability layer: a Profile computed by
// one streaming pass over a merged CLOG-2 file. Where the Collector
// counts what the runtime *did*, the Profile recounts what the trace
// *recorded* — per-channel and per-rank message totals, per-state
// duration statistics (p50/p95/max from the same bounded log2 histograms
// the live side uses), and a busy-vs-blocked breakdown from state
// self-times. The conformance suite holds the two accountings exactly
// equal.
package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/clog2"
	"repro/internal/colors"
)

// ProfileSchema names the JSON schema version written by Profile.JSON.
const ProfileSchema = "pilot-profile/1"

// ChannelProfile is one channel's message accounting. Chan is the wire
// tag (Pilot channel IDs are 1-based).
type ChannelProfile struct {
	Chan      int   `json:"chan"`
	Sends     int64 `json:"sends"`
	Recvs     int64 `json:"recvs"`
	SendBytes int64 `json:"send_bytes"`
	RecvBytes int64 `json:"recv_bytes"`
}

// RankProfile is one rank's accounting.
type RankProfile struct {
	Rank      int   `json:"rank"`
	Records   int64 `json:"records"`
	Sends     int64 `json:"sends"`
	Recvs     int64 `json:"recvs"`
	SendBytes int64 `json:"send_bytes"`
	RecvBytes int64 `json:"recv_bytes"`
	Events    int64 `json:"events"`
	// BusySec and BlockedSec split the rank's state self-time: input and
	// output states (reads, writes, collectives, selects — the operations
	// that block on a peer) count as blocked, everything else (Compute,
	// PI_Configure) as busy. Self-time, so nested states never double
	// count a second.
	BusySec    float64 `json:"busy_sec"`
	BlockedSec float64 `json:"blocked_sec"`
	// WallSec spans the rank's first to last record timestamp.
	WallSec float64 `json:"wall_sec"`
}

// StateProfile aggregates every occurrence of one state across ranks.
type StateProfile struct {
	Name     string `json:"name"`
	Category string `json:"category"`
	Count    int64  `json:"count"`
	// TotalSec sums full durations; SelfSec subtracts nested children.
	TotalSec float64 `json:"total_sec"`
	SelfSec  float64 `json:"self_sec"`
	MaxSec   float64 `json:"max_sec"`
	// P50Sec / P95Sec are duration quantiles from a bounded log2
	// histogram over nanoseconds (see HistSnapshot.Quantile); 0 when the
	// state never completed an occurrence.
	P50Sec float64 `json:"p50_sec"`
	P95Sec float64 `json:"p95_sec"`
	// Durations is the underlying histogram, kept in the JSON so
	// downstream tools can compute other quantiles.
	Durations HistSnapshot `json:"durations"`
}

// ProfileTotals is the whole-run roll-up.
type ProfileTotals struct {
	Records   int64 `json:"records"`
	Sends     int64 `json:"sends"`
	Recvs     int64 `json:"recvs"`
	SendBytes int64 `json:"send_bytes"`
	RecvBytes int64 `json:"recv_bytes"`
	Events    int64 `json:"events"`
}

// ProfileWindow records the time bounds a windowed profile was computed
// over (absent from whole-run profiles, so their JSON is unchanged). An
// open-ended bound is a nil pointer: encoding/json cannot represent the
// infinities the open bounds use internally.
type ProfileWindow struct {
	T0 *float64 `json:"t0,omitempty"`
	T1 *float64 `json:"t1,omitempty"`
}

// Profile is the post-run report computed from a merged CLOG-2 stream.
type Profile struct {
	Schema   string           `json:"schema"`
	NumRanks int              `json:"num_ranks"`
	Channels []ChannelProfile `json:"channels,omitempty"`
	Ranks    []RankProfile    `json:"ranks"`
	States   []StateProfile   `json:"states,omitempty"`
	Totals   ProfileTotals    `json:"totals"`
	// Unpaired counts state ends with no matching start (salvaged or
	// damaged logs); well-formed logs have 0. A state that opened before
	// a window's T0 and closes inside it counts here too: the windowed
	// semantics are "profile exactly the records whose timestamps fall in
	// [T0, T1]", identical between the full-scan and indexed paths.
	Unpaired int64 `json:"unpaired,omitempty"`
	// Window is set on windowed profiles only.
	Window *ProfileWindow `json:"window,omitempty"`
}

// stateAgg accumulates one state's occurrences during the pass.
type stateAgg struct {
	name    string
	count   int64
	total   float64
	self    float64
	max     float64
	durHist hist
}

// Profiler is the profile's observer on a clog2.Fold: the fold decides
// which records count and pairs the states, the Profiler adds up what
// the profile reports about them. The streaming scan, the windowed scan,
// the index-accelerated scan and the analyzer's pass all drive one, which
// is what makes "indexed answers == full-scan answers" an identity rather
// than an approximation.
type Profiler struct {
	fold     *clog2.Fold
	numRanks int
	window   *ProfileWindow      // nil when unbounded
	states   map[int32]*stateAgg // keyed by state def ID (or parity etype/2)
	ranks    []RankProfile       // by FoldRank.Index
	chans    map[int32]*ChannelProfile
}

// NewProfiler returns a Profiler observing fold; numRanks is the rank
// count from the log's header, and [t0, t1] the window the fold's records
// were read over (math.Inf bounds for no limit), which the profile states.
func NewProfiler(fold *clog2.Fold, numRanks int, t0, t1 float64) *Profiler {
	pp := &Profiler{
		fold:     fold,
		numRanks: numRanks,
		states:   map[int32]*stateAgg{},
		chans:    map[int32]*ChannelProfile{},
	}
	if !math.IsInf(t0, -1) || !math.IsInf(t1, 1) {
		lo, hi := t0, t1 // on the heap only for a bounded window
		pp.window = &ProfileWindow{}
		if !math.IsInf(lo, -1) {
			pp.window.T0 = &lo
		}
		if !math.IsInf(hi, 1) {
			pp.window.T1 = &hi
		}
	}
	return pp
}

// rank returns the accumulator of the rank the fold last counted.
func (pp *Profiler) rank() *RankProfile {
	i := pp.fold.Rank.Index
	for len(pp.ranks) <= i {
		pp.ranks = append(pp.ranks, RankProfile{})
	}
	return &pp.ranks[i]
}

// Observe accounts for rec, which the fold has just made step of.
func (pp *Profiler) Observe(step clog2.Step, rec *clog2.Record) {
	switch step {
	case clog2.StepMsg:
		rp := pp.rank()
		cp := pp.chans[rec.Aux2]
		if cp == nil {
			cp = &ChannelProfile{Chan: int(rec.Aux2)}
			pp.chans[rec.Aux2] = cp
		}
		if rec.Dir == clog2.DirSend {
			cp.Sends++
			cp.SendBytes += int64(rec.Aux3)
			rp.Sends++
			rp.SendBytes += int64(rec.Aux3)
		} else {
			cp.Recvs++
			cp.RecvBytes += int64(rec.Aux3)
			rp.Recvs++
			rp.RecvBytes += int64(rec.Aux3)
		}
	case clog2.StepSolo:
		pp.rank().Events++
	case clog2.StepClose:
		occ := &pp.fold.Closed
		a := pp.states[occ.ID]
		if a == nil {
			a = &stateAgg{name: pp.fold.StateName(occ.ID)}
			a.durHist.min.Store(math.MaxInt64)
			pp.states[occ.ID] = a
		}
		a.count++
		a.total += occ.Dur
		a.self += occ.Self
		if occ.Dur > a.max {
			a.max = occ.Dur
		}
		a.durHist.observe(int64(occ.Dur * 1e9))
		switch colors.CategoryOf(a.name) {
		case colors.Input, colors.Output:
			pp.rank().BlockedSec += occ.Self
		default:
			pp.rank().BusySec += occ.Self
		}
	}
}

// observeBlock folds and observes one block's records. Blocks must
// arrive in file order — the order both the full scan and clog2.Walk
// deliver.
func (pp *Profiler) observeBlock(b clog2.Block) error {
	for i := range b.Records {
		rec := &b.Records[i]
		pp.Observe(pp.fold.Add(rec), rec)
	}
	return nil
}

// Profile assembles the sorted tables and returns the Profile.
func (pp *Profiler) Profile() *Profile {
	p := &Profile{Schema: ProfileSchema, NumRanks: pp.numRanks, Unpaired: pp.fold.Unpaired, Window: pp.window}
	chanIDs := make([]int, 0, len(pp.chans))
	for id := range pp.chans {
		chanIDs = append(chanIDs, int(id))
	}
	sort.Ints(chanIDs)
	for _, id := range chanIDs {
		p.Channels = append(p.Channels, *pp.chans[int32(id)])
	}

	for _, fr := range pp.fold.Ranks() {
		var rp RankProfile
		if fr.Index < len(pp.ranks) {
			rp = pp.ranks[fr.Index]
		}
		rp.Rank = int(fr.Rank)
		rp.Records = fr.Records
		rp.WallSec = fr.Last - fr.First
		p.Ranks = append(p.Ranks, rp)
		p.Totals.Records += rp.Records
		p.Totals.Sends += rp.Sends
		p.Totals.Recvs += rp.Recvs
		p.Totals.SendBytes += rp.SendBytes
		p.Totals.RecvBytes += rp.RecvBytes
		p.Totals.Events += rp.Events
	}
	sort.Slice(p.Ranks, func(i, j int) bool { return p.Ranks[i].Rank < p.Ranks[j].Rank })

	stateIDs := make([]int, 0, len(pp.states))
	for id := range pp.states {
		stateIDs = append(stateIDs, int(id))
	}
	sort.Ints(stateIDs)
	for _, id := range stateIDs {
		a := pp.states[int32(id)]
		h := a.durHist.snapshot()
		p.States = append(p.States, StateProfile{
			Name:      a.name,
			Category:  colors.CategoryOf(a.name).String(),
			Count:     a.count,
			TotalSec:  a.total,
			SelfSec:   a.self,
			MaxSec:    a.max,
			P50Sec:    float64(h.Quantile(0.50)) / 1e9,
			P95Sec:    float64(h.Quantile(0.95)) / 1e9,
			Durations: h,
		})
	}
	return p
}

// ComputeProfile streams the CLOG-2 file in r (via clog2.BlockReader, so
// the raw log is never fully materialized) and computes its Profile.
// Which records count and how states pair is clog2.Fold's policy.
func ComputeProfile(r io.Reader) (*Profile, error) {
	return ComputeProfileWindowed(r, math.Inf(-1), math.Inf(1))
}

// ComputeProfileWindowed is ComputeProfile restricted to records whose
// timestamps fall in the inclusive window [t0, t1]. An unbounded window
// reproduces ComputeProfile exactly, without the Window field. A window
// clog2.CheckWindow refuses is refused before r is read, as
// ComputeProfileFileWindowed refuses it.
func ComputeProfileWindowed(r io.Reader, t0, t1 float64) (*Profile, error) {
	if err := clog2.CheckWindow(t0, t1); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	br, err := clog2.NewBlockReader(r)
	if err != nil {
		return nil, err
	}
	q := clog2.MatchAll()
	q.T0, q.T1 = t0, t1
	pp := NewProfiler(clog2.NewFold(), br.NumRanks(), t0, t1)
	if err := br.EachIn(q, pp.observeBlock); err != nil {
		return nil, err
	}
	return pp.Profile(), nil
}

// ComputeProfileFile is ComputeProfile over the CLOG-2 file at path.
func ComputeProfileFile(path string) (*Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := ComputeProfile(f)
	if err != nil {
		return nil, fmt.Errorf("stats: profiling %s: %w", path, err)
	}
	return p, nil
}

// JSON renders the profile as indented JSON with a trailing newline.
func (p *Profile) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteJSON writes the JSON form to path.
func (p *Profile) WriteJSON(path string) error {
	data, err := p.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Format renders the profile as aligned text tables for terminals.
func (p *Profile) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile: %d rank(s), %d record(s), %d send(s) / %d recv(s), %d / %d byte(s)\n",
		p.NumRanks, p.Totals.Records, p.Totals.Sends, p.Totals.Recvs,
		p.Totals.SendBytes, p.Totals.RecvBytes)
	if p.Unpaired > 0 {
		fmt.Fprintf(&b, "warning: %d unpaired state end(s) (damaged or salvaged log)\n", p.Unpaired)
	}
	if len(p.Channels) > 0 {
		b.WriteString("\nchannels:\n")
		fmt.Fprintf(&b, "  %-6s %10s %12s %10s %12s\n", "chan", "sends", "sbytes", "recvs", "rbytes")
		for _, c := range p.Channels {
			fmt.Fprintf(&b, "  C%-5d %10d %12d %10d %12d\n",
				c.Chan, c.Sends, c.SendBytes, c.Recvs, c.RecvBytes)
		}
	}
	b.WriteString("\nranks:\n")
	fmt.Fprintf(&b, "  %-6s %8s %8s %8s %8s %10s %10s %10s\n",
		"rank", "records", "sends", "recvs", "events", "busy_s", "blocked_s", "wall_s")
	for _, r := range p.Ranks {
		fmt.Fprintf(&b, "  P%-5d %8d %8d %8d %8d %10.4f %10.4f %10.4f\n",
			r.Rank, r.Records, r.Sends, r.Recvs, r.Events, r.BusySec, r.BlockedSec, r.WallSec)
	}
	if len(p.States) > 0 {
		b.WriteString("\nstates:\n")
		fmt.Fprintf(&b, "  %-14s %-8s %8s %10s %10s %10s %10s\n",
			"name", "cat", "count", "total_s", "max_s", "p50_s", "p95_s")
		for _, s := range p.States {
			fmt.Fprintf(&b, "  %-14s %-8s %8d %10.4f %10.4f %10.4f %10.4f\n",
				s.Name, s.Category, s.Count, s.TotalSec, s.MaxSec, s.P50Sec, s.P95Sec)
		}
	}
	return b.String()
}
