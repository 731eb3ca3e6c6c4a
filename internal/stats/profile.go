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
	"math/bits"
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

// stateAgg accumulates one state's occurrences on one rank, then, in
// Profile, across the ranks in rank order.
type stateAgg struct {
	name    string
	count   int64
	total   float64
	self    float64
	max     float64
	durHist HistSnapshot
}

// observe adds v nanoseconds (0 when negative) to a histogram one rank's
// fold fills alone: the live collector's hist without its atomics, its
// buckets grown only as far as the longest duration needs, so the last is
// never zero and a rank's share of a small window costs little.
func (h *HistSnapshot) observe(v int64) {
	v = max(v, 0)
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	h.Max = max(h.Max, v)
	h.Count++
	h.Sum += v
	i := bits.Len64(uint64(v))
	if i >= len(h.Buckets) {
		h.Buckets = append(h.Buckets, make([]int64, i+1-len(h.Buckets))...)
	}
	h.Buckets[i]++
}

// Profiler adds a log's profile up rank by rank, as the per-rank walk reads
// it (clog2.EachRank): each rank's fold feeds a RankProfiler of its own,
// and Profile merges the ranks in rank order. The full scan, the windowed
// scan through the block table and the analyzer's pass all drive one, and
// the merge does not depend on how many workers the walk ran nor on
// whether it read the log through its table, which is what makes "indexed
// answers == full-scan answers" an identity rather than an approximation.
type Profiler struct {
	etypes   *clog2.Etypes
	numRanks int
	window   *ProfileWindow // nil when unbounded
}

// NewProfiler returns a Profiler of a log whose header counts numRanks
// ranks and whose definitions e reads; [t0, t1] is the window the log's
// records were read over (math.Inf bounds for no limit), which the profile
// states.
func NewProfiler(e *clog2.Etypes, numRanks int, t0, t1 float64) *Profiler {
	pp := &Profiler{etypes: e, numRanks: numRanks}
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

// RankProfiler is the profile's observer on one rank's clog2.Fold: the
// fold decides which records count and pairs the states, the RankProfiler
// adds up what the profile reports about them.
type RankProfiler struct {
	fold   *clog2.Fold
	etypes *clog2.Etypes
	row    RankProfile
	states map[int32]*stateAgg // keyed by state def ID (or parity etype/2)
	chans  map[int32]*ChannelProfile
}

// Rank returns the observer of the rank fold folds.
func (pp *Profiler) Rank(fold *clog2.Fold) *RankProfiler {
	return &RankProfiler{fold: fold, etypes: pp.etypes, states: map[int32]*stateAgg{}, chans: map[int32]*ChannelProfile{}}
}

// Observe accounts for rec, which the fold has just made step of.
func (rp *RankProfiler) Observe(step clog2.Step, rec *clog2.Record) {
	switch step {
	case clog2.StepMsg:
		cp := rp.chans[rec.Aux2]
		if cp == nil {
			cp = &ChannelProfile{Chan: int(rec.Aux2)}
			rp.chans[rec.Aux2] = cp
		}
		if rec.Dir == clog2.DirSend {
			cp.Sends++
			cp.SendBytes += int64(rec.Aux3)
			rp.row.Sends++
			rp.row.SendBytes += int64(rec.Aux3)
		} else {
			cp.Recvs++
			cp.RecvBytes += int64(rec.Aux3)
			rp.row.Recvs++
			rp.row.RecvBytes += int64(rec.Aux3)
		}
	case clog2.StepSolo:
		rp.row.Events++
	case clog2.StepClose:
		occ := &rp.fold.Closed
		a := rp.states[occ.ID]
		if a == nil {
			a = &stateAgg{name: rp.etypes.StateName(occ.ID)}
			rp.states[occ.ID] = a
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
			rp.row.BlockedSec += occ.Self
		default:
			rp.row.BusySec += occ.Self
		}
	}
}

// Visit folds and observes one of the rank's blocks.
func (rp *RankProfiler) Visit(b clog2.Block) error {
	for i := range b.Records {
		rec := &b.Records[i]
		rp.Observe(rp.fold.Add(rec), rec)
	}
	return nil
}

// Profile merges ranks, in rank order, into the Profile: counts, sums and
// histograms add, per rank and then across the ranks in that order, and a
// rank that counted no record has no row.
func (pp *Profiler) Profile(ranks []*RankProfiler) *Profile {
	p := &Profile{Schema: ProfileSchema, NumRanks: pp.numRanks, Window: pp.window}
	chans := map[int32]*ChannelProfile{}
	states := map[int32]*stateAgg{}
	for _, rp := range ranks {
		fold := rp.fold
		p.Unpaired += fold.Unpaired
		if fold.Records == 0 {
			continue
		}
		rp.row.Rank = int(fold.Rank)
		rp.row.Records = fold.Records
		rp.row.WallSec = fold.Last - fold.First
		p.Ranks = append(p.Ranks, rp.row)
		p.Totals.Records += rp.row.Records
		p.Totals.Sends += rp.row.Sends
		p.Totals.Recvs += rp.row.Recvs
		p.Totals.SendBytes += rp.row.SendBytes
		p.Totals.RecvBytes += rp.row.RecvBytes
		p.Totals.Events += rp.row.Events
		for id, c := range rp.chans {
			all := chans[id]
			if all == nil {
				all = &ChannelProfile{Chan: c.Chan}
				chans[id] = all
			}
			all.Sends += c.Sends
			all.Recvs += c.Recvs
			all.SendBytes += c.SendBytes
			all.RecvBytes += c.RecvBytes
		}
		for id, a := range rp.states {
			all := states[id]
			if all == nil {
				all = &stateAgg{name: a.name}
				states[id] = all
			}
			all.count += a.count
			all.total += a.total
			all.self += a.self
			all.max = max(all.max, a.max)
		}
	}

	chanIDs := make([]int, 0, len(chans))
	for id := range chans {
		chanIDs = append(chanIDs, int(id))
	}
	sort.Ints(chanIDs)
	for _, id := range chanIDs {
		p.Channels = append(p.Channels, *chans[int32(id)])
	}

	stateIDs := make([]int, 0, len(states))
	for id := range states {
		stateIDs = append(stateIDs, int(id))
	}
	sort.Ints(stateIDs)
	hists := make([]HistSnapshot, 0, len(ranks))
	for _, id := range stateIDs {
		a := states[int32(id)]
		hists = hists[:0]
		for _, rp := range ranks {
			if r := rp.states[int32(id)]; r != nil {
				hists = append(hists, r.durHist)
			}
		}
		h := mergeHists(hists)
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

// ComputeProfile computes the Profile of the CLOG-2 log r holds, read as
// a stream in one pass, no more than a block of it held at a time; a file
// is read rank by rank through its block table (ComputeProfileFile), to
// the same profile. Which records count and how states pair is
// clog2.Fold's policy.
func ComputeProfile(r io.Reader) (*Profile, error) {
	return ComputeProfileWindowed(r, math.Inf(-1), math.Inf(1))
}

// ComputeProfileWindowed is ComputeProfile restricted to records whose
// timestamps fall in the inclusive window [t0, t1], read from every block
// of the stream. An unbounded window reproduces ComputeProfile exactly,
// without the Window field. A window clog2.CheckWindow refuses is refused
// before r is read, as ComputeProfileFileWindowed refuses it.
func ComputeProfileWindowed(r io.Reader, t0, t1 float64) (*Profile, error) {
	p, _, err := computeProfile(clog2.StreamInput(r), t0, t1, 1)
	return p, err
}

// computeProfile profiles [t0, t1] of the log in holds rank by rank on up
// to workers workers (clog2.EachRank), and says whether its block table
// selected the blocks.
func computeProfile(in clog2.Input, t0, t1 float64, workers int) (*Profile, bool, error) {
	if err := clog2.CheckWindow(t0, t1); err != nil {
		return nil, false, fmt.Errorf("stats: %w", err)
	}
	q := clog2.MatchAll()
	q.T0, q.T1 = t0, t1
	var pp *Profiler
	ranks, used, err := clog2.EachRank(in, q, workers, func(numRanks int, defs []clog2.Record) func(int32) *RankProfiler {
		e := clog2.NewEtypes(defs)
		pp = NewProfiler(e, numRanks, t0, t1)
		return func(rank int32) *RankProfiler { return pp.Rank(clog2.NewFold(e, rank)) }
	})
	if err != nil {
		return nil, false, err
	}
	return pp.Profile(ranks), used, nil
}

// ComputeProfileFile is ComputeProfile over the CLOG-2 file at path, read
// rank by rank through its block table on GOMAXPROCS workers
// (ComputeProfileFileWindowed).
func ComputeProfileFile(path string) (*Profile, error) {
	p, _, err := ComputeProfileFileWindowed(path, math.Inf(-1), math.Inf(1))
	return p, err
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
