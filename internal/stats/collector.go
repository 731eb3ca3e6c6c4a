// Package stats is the runtime observability layer: live, queryable
// numbers while ranks are running, and a machine-readable profile of the
// finished run.
//
// The live half (this file) is a Collector of per-rank, per-channel
// counters and bounded histograms, fed from the same allocation-free hot
// path the MPE logging uses. Every observation is a handful of atomic
// adds on the observing rank's own shard — no locks, no allocation — and
// aggregation happens only when somebody asks, by merging the shards
// into a Snapshot. The merged view is exported through expvar
// ("pilot_stats" on /debug/vars) so a live run can be inspected with
// nothing fancier than curl.
//
// The post-run half (profile.go) recomputes the same totals from the
// merged CLOG-2 stream; the conformance suite holds the two accountings
// exactly equal, so the live counters and the trace may never disagree.
package stats

import (
	"expvar"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter indices into a shard's counter array.
const (
	// CtrMsgsSent / CtrMsgsRecv count user-data messages through Pilot
	// channels (one per wire message, matching the CLOG-2 MsgEvt records).
	CtrMsgsSent = iota
	CtrMsgsRecv
	// CtrBytesSent / CtrBytesRecv count framed payload bytes — the same
	// sizes LogSend/LogRecv put in the trace, so the cross-validation
	// against the CLOG-2 recount is exact.
	CtrBytesSent
	CtrBytesRecv
	// CtrBarriers counts completed barrier entries.
	CtrBarriers
	// CtrSelects counts PI_Select completions.
	CtrSelects
	// CtrSpillSegments / CtrSpillBytes count RobustLog write-through spill
	// traffic (one segment per writeBlock, bytes as landed on disk).
	CtrSpillSegments
	CtrSpillBytes
	// CtrFaultsInjected counts fired fault-plan events.
	CtrFaultsInjected
	// CtrWireFrames / CtrWireBytes count multi-process transport frames
	// and bytes this process wrote to the wire, attributed to its local
	// rank (always zero under the in-process transport).
	CtrWireFrames
	CtrWireBytes
	// CtrWireFaults counts wire-level fault-plan injections (delays,
	// corruptions, drops...) this process applied to its links.
	CtrWireFaults
	// CtrCrcFailures counts frames rejected by the link-layer CRC check.
	CtrCrcFailures
	// CtrHeartbeats counts PING frames this process sent to keep its
	// links' liveness clocks fresh.
	CtrHeartbeats
	// CtrReconnects counts successful link resumes after a connection
	// failure.
	CtrReconnects
	// CtrRetransmits counts sequenced frames re-sent from the unacked
	// window during a link resume.
	CtrRetransmits
	numCounters
)

// counterNames index-aligns with the counter constants (JSON keys).
var counterNames = [numCounters]string{
	"msgs_sent", "msgs_recv", "bytes_sent", "bytes_recv",
	"barriers", "selects",
	"spill_segments", "spill_bytes", "faults_injected",
	"wire_frames", "wire_bytes",
	"wire_faults_injected", "crc_failures", "heartbeats",
	"reconnects", "frames_retransmitted",
}

// Histogram indices into a shard's histogram array.
const (
	// HistWriteBlockNs / HistReadBlockNs are the time a channel write or
	// read spent blocked in the MPI substrate, nanoseconds.
	HistWriteBlockNs = iota
	HistReadBlockNs
	// HistBarrierWaitNs is time blocked inside Barrier.
	HistBarrierWaitNs
	// HistProbeWaitNs is the time a PI_Select waited for a ready channel.
	HistProbeWaitNs
	// HistSelectFanIn is the channel count of each completed Select.
	HistSelectFanIn
	numHists
)

// histNames index-aligns with the histogram constants (JSON keys).
var histNames = [numHists]string{
	"write_block_ns", "read_block_ns", "barrier_wait_ns",
	"probe_wait_ns", "select_fan_in",
}

// numBuckets covers bits.Len64 of any non-negative int64: bucket 0 holds
// the value 0, bucket i holds [2^(i-1), 2^i). Fixed size, so a histogram
// is one flat array of atomics — bounded memory no matter the run length.
const numBuckets = 64

// hist is one bounded log2 histogram, updated with atomics only.
type hist struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	min     atomic.Int64 // math.MaxInt64 while empty
	buckets [numBuckets]atomic.Int64
}

func (h *hist) observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// shard is one rank's private slice of the collector. Ranks only ever
// write their own shard, so the atomics never contend in the steady
// state; padding keeps neighbouring shards off one cache line.
type shard struct {
	counters [numCounters]atomic.Int64
	hists    [numHists]hist
	_        [64]byte
}

// chanCell is one channel's counters. A Pilot channel has exactly one
// writing and one reading rank, so at most two goroutines touch a cell.
type chanCell struct {
	sent, sentBytes   atomic.Int64
	recvd, recvdBytes atomic.Int64
	writeNs, readNs   atomic.Int64
}

// Collector gathers live metrics for one Pilot run. A nil *Collector is
// the disabled state: every method is a no-op on a nil receiver, so call
// sites hoist a single `mx := r.metrics` and need no second flag.
type Collector struct {
	shards []shard
	chans  atomic.Pointer[[]chanCell]
}

// New creates a collector for a world of numRanks ranks.
func New(numRanks int) *Collector {
	if numRanks < 1 {
		numRanks = 1
	}
	c := &Collector{shards: make([]shard, numRanks)}
	for i := range c.shards {
		for j := range c.shards[i].hists {
			c.shards[i].hists[j].min.Store(math.MaxInt64)
		}
	}
	return c
}

// Enabled reports whether metrics are being collected.
func (c *Collector) Enabled() bool { return c != nil }

// NumRanks returns the shard count.
func (c *Collector) NumRanks() int {
	if c == nil {
		return 0
	}
	return len(c.shards)
}

// SetChannels sizes the per-channel cells for channel IDs 1..n. Pilot
// calls it at PI_StartAll, once the channel table is final; observations
// carrying an ID outside the sized range fall through to the per-rank
// counters only.
func (c *Collector) SetChannels(n int) {
	if c == nil || n < 0 {
		return
	}
	cells := make([]chanCell, n)
	c.chans.Store(&cells)
}

// cell returns channel id's cell (1-based IDs), or nil.
func (c *Collector) cell(id int) *chanCell {
	cells := c.chans.Load()
	if cells == nil || id < 1 || id > len(*cells) {
		return nil
	}
	return &(*cells)[id-1]
}

func (c *Collector) shard(rank int) *shard {
	if rank < 0 || rank >= len(c.shards) {
		return nil
	}
	return &c.shards[rank]
}

// SendObserved records one channel send: nbytes framed bytes from rank
// down channel ch, having spent blockNs blocked in the substrate.
func (c *Collector) SendObserved(rank, ch, nbytes int, blockNs int64) {
	if c == nil {
		return
	}
	s := c.shard(rank)
	if s == nil {
		return // unknown rank: drop the whole observation, cells included
	}
	s.counters[CtrMsgsSent].Add(1)
	s.counters[CtrBytesSent].Add(int64(nbytes))
	s.hists[HistWriteBlockNs].observe(blockNs)
	if cell := c.cell(ch); cell != nil {
		cell.sent.Add(1)
		cell.sentBytes.Add(int64(nbytes))
		cell.writeNs.Add(blockNs)
	}
}

// RecvObserved records one channel receive, the mirror of SendObserved.
func (c *Collector) RecvObserved(rank, ch, nbytes int, blockNs int64) {
	if c == nil {
		return
	}
	s := c.shard(rank)
	if s == nil {
		return
	}
	s.counters[CtrMsgsRecv].Add(1)
	s.counters[CtrBytesRecv].Add(int64(nbytes))
	s.hists[HistReadBlockNs].observe(blockNs)
	if cell := c.cell(ch); cell != nil {
		cell.recvd.Add(1)
		cell.recvdBytes.Add(int64(nbytes))
		cell.readNs.Add(blockNs)
	}
}

// BarrierWait records one completed barrier entry and its blocked time.
func (c *Collector) BarrierWait(rank int, ns int64) {
	if c == nil {
		return
	}
	if s := c.shard(rank); s != nil {
		s.counters[CtrBarriers].Add(1)
		s.hists[HistBarrierWaitNs].observe(ns)
	}
}

// SelectObserved records one completed PI_Select over fanIn channels,
// having waited ns nanoseconds for a ready one.
func (c *Collector) SelectObserved(rank, fanIn int, ns int64) {
	if c == nil {
		return
	}
	if s := c.shard(rank); s != nil {
		s.counters[CtrSelects].Add(1)
		s.hists[HistSelectFanIn].observe(int64(fanIn))
		s.hists[HistProbeWaitNs].observe(ns)
	}
}

// SpillWrite records one spill segment of nbytes landing on disk.
func (c *Collector) SpillWrite(rank, nbytes int) {
	if c == nil {
		return
	}
	if s := c.shard(rank); s != nil {
		s.counters[CtrSpillSegments].Add(1)
		s.counters[CtrSpillBytes].Add(int64(nbytes))
	}
}

// WireObserved records frames/nbytes written to the multi-process
// transport wire by the process hosting rank.
func (c *Collector) WireObserved(rank, frames, nbytes int) {
	if c == nil {
		return
	}
	if s := c.shard(rank); s != nil {
		s.counters[CtrWireFrames].Add(int64(frames))
		s.counters[CtrWireBytes].Add(int64(nbytes))
	}
}

// WireCounted adds n to one of the wire-hardening counters (CtrWireFaults,
// CtrCrcFailures, CtrHeartbeats, CtrReconnects, CtrRetransmits) for the
// process hosting rank. One entry point keeps the transport's accounting
// calls as cheap as the frames they count.
func (c *Collector) WireCounted(rank, ctr int, n int64) {
	if c == nil || ctr < CtrWireFaults || ctr > CtrRetransmits {
		return
	}
	if s := c.shard(rank); s != nil {
		s.counters[ctr].Add(n)
	}
}

// FaultInjected records one fired fault-plan event on rank.
func (c *Collector) FaultInjected(rank int) {
	if c == nil {
		return
	}
	if s := c.shard(rank); s != nil {
		s.counters[CtrFaultsInjected].Add(1)
	}
}

// Counter returns one rank's live value of counter ctr.
func (c *Collector) Counter(rank, ctr int) int64 {
	if c == nil || ctr < 0 || ctr >= numCounters {
		return 0
	}
	s := c.shard(rank)
	if s == nil {
		return 0
	}
	return s.counters[ctr].Load()
}

// Total sums counter ctr across all ranks.
func (c *Collector) Total(ctr int) int64 {
	if c == nil || ctr < 0 || ctr >= numCounters {
		return 0
	}
	var t int64
	for i := range c.shards {
		t += c.shards[i].counters[ctr].Load()
	}
	return t
}

// HistSnapshot is one histogram's merged, immutable view.
type HistSnapshot struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Min     int64   `json:"min"`
	Max     int64   `json:"max"`
	Buckets []int64 `json:"buckets,omitempty"` // log2 buckets, trailing zeros trimmed
}

// Mean returns the arithmetic mean, 0 when empty.
func (h HistSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an upper bound on the q-quantile (0 ≤ q ≤ 1) from the
// log2 buckets: the largest value the bucket holding the q'th sample
// could contain, clamped to the observed Max. An empty histogram returns
// 0 for every q — the zero-sample edge the report paths must survive.
func (h HistSnapshot) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(h.Count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, n := range h.Buckets {
		cum += n
		if cum >= target {
			var hi int64
			if i == 0 {
				hi = 0
			} else if i >= 63 {
				hi = math.MaxInt64
			} else {
				hi = int64(1)<<uint(i) - 1
			}
			if hi > h.Max {
				hi = h.Max
			}
			if hi < h.Min {
				hi = h.Min
			}
			return hi
		}
	}
	return h.Max
}

func (h *hist) snapshot() HistSnapshot {
	s := HistSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Min:   h.min.Load(),
		Max:   h.max.Load(),
	}
	if s.Count == 0 {
		s.Min = 0
		return s
	}
	last := -1
	var raw [numBuckets]int64
	for i := range h.buckets {
		raw[i] = h.buckets[i].Load()
		if raw[i] != 0 {
			last = i
		}
	}
	if last >= 0 {
		s.Buckets = append([]int64(nil), raw[:last+1]...)
	}
	return s
}

// mergeHists folds per-rank snapshots of the same histogram into one.
func mergeHists(hs []HistSnapshot) HistSnapshot {
	out := HistSnapshot{Min: math.MaxInt64}
	n := 0
	for _, h := range hs {
		n = max(n, len(h.Buckets))
	}
	if n > 0 {
		out.Buckets = make([]int64, n)
	}
	for _, h := range hs {
		if h.Count == 0 {
			continue
		}
		out.Count += h.Count
		out.Sum += h.Sum
		if h.Max > out.Max {
			out.Max = h.Max
		}
		if h.Min < out.Min {
			out.Min = h.Min
		}
		for i, n := range h.Buckets {
			out.Buckets[i] += n
		}
	}
	if out.Count == 0 {
		out.Min = 0
	}
	return out
}

// RankSnapshot is one rank's merged counters and histograms.
type RankSnapshot struct {
	Rank     int                     `json:"rank"`
	Counters map[string]int64        `json:"counters"`
	Hists    map[string]HistSnapshot `json:"hists,omitempty"`
}

// ChanSnapshot is one channel's counters.
type ChanSnapshot struct {
	Chan       int   `json:"chan"` // 1-based channel ID (the wire tag)
	Sent       int64 `json:"sent"`
	SentBytes  int64 `json:"sent_bytes"`
	Recvd      int64 `json:"recvd"`
	RecvdBytes int64 `json:"recvd_bytes"`
	WriteNs    int64 `json:"write_ns"`
	ReadNs     int64 `json:"read_ns"`
}

// Snapshot is a consistent-enough merged view of the collector: each
// value is an atomic load, so a snapshot taken mid-run may straddle an
// in-flight observation, but a snapshot taken after the run is exact.
type Snapshot struct {
	Ranks    []RankSnapshot          `json:"ranks"`
	Channels []ChanSnapshot          `json:"channels,omitempty"`
	Totals   map[string]int64        `json:"totals"`
	Hists    map[string]HistSnapshot `json:"hists,omitempty"`
}

// Snapshot merges the shards into an immutable view.
func (c *Collector) Snapshot() *Snapshot {
	if c == nil {
		return nil
	}
	snap := &Snapshot{Totals: map[string]int64{}, Hists: map[string]HistSnapshot{}}
	perHist := make([][]HistSnapshot, numHists)
	for rank := range c.shards {
		s := &c.shards[rank]
		rs := RankSnapshot{Rank: rank, Counters: map[string]int64{}}
		for i := 0; i < numCounters; i++ {
			v := s.counters[i].Load()
			rs.Counters[counterNames[i]] = v
			snap.Totals[counterNames[i]] += v
		}
		for i := 0; i < numHists; i++ {
			hs := s.hists[i].snapshot()
			perHist[i] = append(perHist[i], hs)
			if hs.Count > 0 {
				if rs.Hists == nil {
					rs.Hists = map[string]HistSnapshot{}
				}
				rs.Hists[histNames[i]] = hs
			}
		}
		snap.Ranks = append(snap.Ranks, rs)
	}
	for i := 0; i < numHists; i++ {
		if m := mergeHists(perHist[i]); m.Count > 0 {
			snap.Hists[histNames[i]] = m
		}
	}
	if cells := c.chans.Load(); cells != nil {
		for i := range *cells {
			cell := &(*cells)[i]
			cs := ChanSnapshot{
				Chan:       i + 1,
				Sent:       cell.sent.Load(),
				SentBytes:  cell.sentBytes.Load(),
				Recvd:      cell.recvd.Load(),
				RecvdBytes: cell.recvdBytes.Load(),
				WriteNs:    cell.writeNs.Load(),
				ReadNs:     cell.readNs.Load(),
			}
			snap.Channels = append(snap.Channels, cs)
		}
	}
	return snap
}

// expvar export. The name can be published exactly once per process, so
// the registration happens through a Once and reads through an atomic
// pointer that always reflects the most recent collector — a test suite
// creating many runtimes never panics on a duplicate name.
var (
	publishOnce sync.Once
	publishedC  atomic.Pointer[Collector]
)

// Publish exposes c as the expvar variable "pilot_stats" (visible on any
// /debug/vars endpoint). Later calls atomically swap which collector the
// variable reads; a nil c is ignored.
func Publish(c *Collector) {
	if c == nil {
		return
	}
	publishedC.Store(c)
	publishOnce.Do(func() {
		expvar.Publish("pilot_stats", expvar.Func(func() any {
			return publishedC.Load().Snapshot()
		}))
	})
}
