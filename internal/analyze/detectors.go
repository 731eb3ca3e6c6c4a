// The detector catalogue: each detector is a pure function of the
// collection pass and the profile computed beside it, tuned by the
// calibrated Thresholds and emitting Findings. Calibration contract
// (enforced by the labelled corpus in the repo root): every seeded
// pathology fires its detector, and clean runs of the example programs
// produce zero findings.
package analyze

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/clog2"
	"repro/internal/colors"
	"repro/internal/stats"
)

// buildReport runs every detector and assembles the Report.
func buildReport(c *collector, usedIndex bool) *Report {
	prof := c.profile
	first, last := c.wall()
	rep := &Report{
		Schema:             Schema,
		NumRanks:           prof.NumRanks,
		Records:            prof.Totals.Records,
		WallSec:            last - first,
		UsedIndex:          usedIndex,
		Thresholds:         calibrated,
		MsgEventsTruncated: c.truncated,
		Window:             prof.Window,
		Findings:           []Finding{},
	}

	pairs := matchChannels(c)
	rep.ClockSuspect = pairs.nonCausal > 0

	var fs []Finding
	fs = append(fs, detectImbalance(prof)...)
	fs = append(fs, detectStraggler(c, prof)...)
	fs = append(fs, detectDominator(c)...)
	fs = append(fs, detectFaults(c)...)
	if !rep.ClockSuspect {
		fs = append(fs, detectHotspot(pairs)...)
		fs = append(fs, detectBacklog(c)...)
	}
	for _, f := range fs {
		if math.IsNaN(f.Value) || math.IsInf(f.Value, 0) {
			continue
		}
		rep.Findings = append(rep.Findings, f)
	}
	sortFindings(rep.Findings)
	rep.Clean = len(rep.Findings) == 0
	return rep
}

// channelPairs is clog2's FIFO send/recv matching summed per channel
// (tag).
type channelPairs struct {
	// inflight is each channel's summed matched recv-send latency.
	inflight map[int32]float64
	total    float64
	matched  map[int32]int
	// nonCausal counts matched pairs whose recv precedes its send by
	// more than clock-sync tolerance — the signature of synthetic or
	// unsynchronized clocks, which invalidates timing analysis.
	nonCausal int
}

// causalSlack absorbs the small cross-process clock skew the socket
// transport's sync leaves behind.
const causalSlack = 1e-3

// matchChannels sums, per channel, the message pairs clog2.Messages
// matches: first in, first out per (src, dst, tag), in time order.
func matchChannels(c *collector) *channelPairs {
	ps := &channelPairs{inflight: map[int32]float64{}, matched: map[int32]int{}}
	c.msgs.Match(func(k clog2.MsgKey, sends, recvs []clog2.MsgHalf) {
		n := min(len(sends), len(recvs))
		ps.matched[k.Tag] += n
		for i, s := range sends[:n] {
			d := recvs[i].Time - s.Time
			if d < -causalSlack {
				ps.nonCausal++
			}
			if d > 0 {
				ps.inflight[k.Tag] += d
			}
		}
	})
	for _, ch := range sortedChans(ps.inflight) {
		ps.total += ps.inflight[ch]
	}
	return ps
}

func sortedChans(m map[int32]float64) []int32 {
	chans := make([]int32, 0, len(m))
	for ch := range m {
		chans = append(chans, ch)
	}
	slices.Sort(chans)
	return chans
}

// detectImbalance flags channels whose send and recv counts disagree —
// on a completed run, a crashed reader or truncated log. Reuses the
// profile's channel table.
func detectImbalance(prof *stats.Profile) []Finding {
	var fs []Finding
	for _, ch := range prof.Channels {
		if ch.Sends == ch.Recvs {
			continue
		}
		diff := ch.Sends - ch.Recvs
		kind := "unread send(s)"
		if diff < 0 {
			diff, kind = -diff, "recv(s) without a send"
		}
		fs = append(fs, Finding{
			Detector: DetImbalance,
			Severity: "warning",
			Rank:     -1,
			Channel:  ch.Chan,
			Value:    float64(diff),
			Detail: fmt.Sprintf("channel %d: %d sends vs %d recvs (%d %s)",
				ch.Chan, ch.Sends, ch.Recvs, diff, kind),
		})
	}
	return fs
}

// detectStraggler flags a blocking state whose longest occurrence ran
// both past an absolute floor and far beyond its cohort baseline (the
// larger of the second-longest occurrence and the state's p50 from
// the profile histogram).
func detectStraggler(c *collector, prof *stats.Profile) []Finding {
	p50 := map[string]float64{}
	count := map[string]int64{}
	for _, sp := range prof.States {
		p50[sp.Name] = sp.P50Sec
		count[sp.Name] = sp.Count
	}
	// Global top-2 occurrences per state across ranks, from the
	// per-rank (max, second) pairs.
	type top struct {
		max, second float64
		rank        int32
		start       float64
		name        string
	}
	tops := map[int32]*top{}
	for _, rp := range c.ranks {
		for id, st := range rp.states {
			t := tops[id]
			if t == nil {
				t = &top{name: st.name}
				tops[id] = t
			}
			for _, d := range []float64{st.max, st.second} {
				if d > t.max {
					t.second = t.max
					t.max = d
					if d == st.max {
						t.rank, t.start = rp.fold.Rank, st.maxStart
					}
				} else if d > t.second {
					t.second = d
				}
			}
		}
	}
	var fs []Finding
	for _, t := range tops {
		switch colors.CategoryOf(t.name) {
		case colors.Input, colors.Output:
		default:
			continue // stragglers are a blocking-operation pathology
		}
		if count[t.name] < 2 {
			continue // no cohort to straggle from
		}
		baseline := t.second
		if p := p50[t.name]; p > baseline {
			baseline = p
		}
		if t.max < calibrated.StragglerMinSec || t.max < calibrated.StragglerFactor*baseline {
			continue
		}
		fs = append(fs, Finding{
			Detector:  DetStraggler,
			Severity:  "warning",
			Rank:      int(t.rank),
			Channel:   -1,
			State:     t.name,
			Time:      t.start,
			Value:     t.max,
			Threshold: calibrated.StragglerMinSec,
			Detail: fmt.Sprintf("rank %d: one %s took %.3fs vs %.6fs for the rest of the cohort (%.0fx floor %gs)",
				t.rank, t.name, t.max, baseline, calibrated.StragglerFactor, calibrated.StragglerMinSec),
		})
	}
	return fs
}

// detectDominator flags ranks whose output-blocked self-time dominates
// their wall time. Clean Pilot writes are eager and near-instant, so
// any substantial output-blocked share means senders were held up —
// the critical-path signature of a slow or faulted link.
func detectDominator(c *collector) []Finding {
	var fs []Finding
	for _, rp := range c.ranks {
		wall := rp.fold.Last - rp.fold.First
		if rp.outBlockedSec < calibrated.DominatorMinSec || rp.outBlockedSec < calibrated.DominatorShare*wall {
			continue
		}
		fs = append(fs, Finding{
			Detector:  DetDominator,
			Severity:  "warning",
			Rank:      int(rp.fold.Rank),
			Channel:   -1,
			Value:     rp.outBlockedSec,
			Threshold: calibrated.DominatorMinSec,
			Detail: fmt.Sprintf("rank %d spent %.3fs of %.3fs wall (%.0f%%) blocked in output operations",
				rp.fold.Rank, rp.outBlockedSec, wall, 100*rp.outBlockedSec/math.Max(wall, 1e-12)),
		})
	}
	return fs
}

// detectHotspot flags the channel carrying a dominating share of the
// run's total in-flight message latency.
func detectHotspot(pairs *channelPairs) []Finding {
	var fs []Finding
	for _, ch := range sortedChans(pairs.inflight) {
		lat := pairs.inflight[ch]
		if lat < calibrated.HotspotMinSec || pairs.matched[ch] == 0 {
			continue
		}
		share := lat / pairs.total
		if share < calibrated.HotspotShare {
			continue
		}
		fs = append(fs, Finding{
			Detector:  DetHotspot,
			Severity:  "warning",
			Rank:      -1,
			Channel:   int(ch),
			Value:     lat,
			Threshold: calibrated.HotspotMinSec,
			Detail: fmt.Sprintf("channel %d carried %.3fs of in-flight latency over %d messages (%.0f%% of the run's total)",
				ch, lat, pairs.matched[ch], 100*share),
		})
	}
	return fs
}

// detectBacklog flags message queues whose outstanding (sent-but-unread)
// count rose past the floor and sat there with the reader silent.
func detectBacklog(c *collector) []Finding {
	var fs []Finding
	_, traceEnd := c.wall()
	c.msgs.Match(func(k clog2.MsgKey, sends, recvs []clog2.MsgHalf) {
		peak, peakT, dwell := backlogWalk(sends, recvs, calibrated.BacklogMin, traceEnd)
		if peak < calibrated.BacklogMin || dwell < calibrated.BacklogDwellSec {
			return
		}
		fs = append(fs, Finding{
			Detector:  DetBacklog,
			Severity:  "warning",
			Rank:      -1,
			Channel:   int(k.Tag),
			Time:      peakT,
			Value:     float64(peak),
			Threshold: float64(calibrated.BacklogMin),
			Detail: fmt.Sprintf("channel %d backlog peaked at %d unread messages and held >=%d for %.3fs with the reader silent",
				k.Tag, peak, calibrated.BacklogMin, dwell),
		})
	})
	return fs
}

// backlogWalk merges a queue's send (+1) and recv (-1) halves, each
// already in time order, into one (recvs first on ties) and returns the peak outstanding
// count, its timestamp, and the longest contiguous span the
// outstanding count stayed at or above min. A trace that ends with the
// backlog still standing (crashed reader) extends the span to the last
// record timestamp in the trace.
func backlogWalk(s, r []clog2.MsgHalf, min int, endOfTrace float64) (peak int, peakT, maxDwell float64) {
	outstanding := 0
	spanStart := 0.0
	inSpan := false
	closeSpan := func(t float64) {
		if inSpan {
			if d := t - spanStart; d > maxDwell {
				maxDwell = d
			}
			inSpan = false
		}
	}
	i, j := 0, 0
	for i < len(s) || j < len(r) {
		var t float64
		isRecv := false
		switch {
		case i >= len(s):
			isRecv = true
		case j >= len(r):
		default:
			isRecv = r[j].Time <= s[i].Time
		}
		if isRecv {
			t = r[j].Time
			j++
			if outstanding > 0 {
				outstanding--
			}
		} else {
			t = s[i].Time
			i++
			outstanding++
		}
		if outstanding > peak {
			peak = outstanding
			peakT = t
		}
		if outstanding >= min && !inSpan {
			spanStart, inSpan = t, true
		} else if outstanding < min {
			closeSpan(t)
		}
	}
	if endOfTrace > spanStart {
		closeSpan(endOfTrace)
	} else {
		closeSpan(spanStart)
	}
	return peak, peakT, maxDwell
}

// detectFaults correlates the trace's FaultInjected/Deadlock solo
// events into per-(rank, fault-kind) findings, so a verdict names the
// injected cause alongside the detected symptoms.
func detectFaults(c *collector) []Finding {
	type key struct {
		rank int32
		kind string
	}
	type agg struct {
		count int
		first faultEvent
	}
	byKey := map[key]*agg{}
	var keys []key
	for _, ev := range c.faults {
		kind := ev.name
		if ev.name == faultEventName {
			// Cargo is FaultEvent.String(), e.g. "stall rank=1 op=2";
			// the first token is the fault kind.
			if f := strings.Fields(ev.cargo); len(f) > 0 {
				kind = f[0]
			}
		}
		k := key{ev.rank, kind}
		a := byKey[k]
		if a == nil {
			a = &agg{first: ev}
			byKey[k] = a
			keys = append(keys, k)
		}
		a.count++
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].rank != keys[j].rank {
			return keys[i].rank < keys[j].rank
		}
		return keys[i].kind < keys[j].kind
	})
	var fs []Finding
	for _, k := range keys {
		a := byKey[k]
		noun := "fault event(s)"
		if k.kind == deadlockEventName {
			noun = "deadlock diagnosis event(s)"
		}
		detail := fmt.Sprintf("rank %d: %d %q %s", k.rank, a.count, k.kind, noun)
		if a.first.cargo != "" {
			detail += fmt.Sprintf(" (first: %q)", a.first.cargo)
		}
		fs = append(fs, Finding{
			Detector: DetFault,
			Severity: "info",
			Rank:     int(k.rank),
			Channel:  -1,
			State:    k.kind,
			Time:     a.first.time,
			Value:    float64(a.count),
			Detail:   detail,
		})
	}
	return fs
}
