// Package analyze turns a merged CLOG-2 trace into verdicts: a
// streaming pathology-detection pass in the spirit of Sulzmann &
// Stadtmüller's trace-based analysis of message-passing programs, plus
// trace diffing à la Okita et al.'s fault-localization tool (diff.go).
//
// The detector catalogue covers the communication pathologies the
// fault-injection machinery can plant deterministically — hotspot
// channels, send/recv imbalance, barrier stragglers, growing mailbox
// backlogs, blocked-time critical-path dominators, and injected-fault
// correlation — and every detector is validated against a labelled
// chaos corpus: seeded fault plans with known pathologies must be
// flagged (recall 1.0) and clean runs must stay silent (zero false
// positives). Where a number already exists in the post-run profile
// (channel totals, per-state histograms), the detectors read it from a
// stats.Profiler fed by the same pass, never from a profile stored
// beside the log: a verdict is a function of its log alone. The
// collector only adds what the profile does not keep — per-(rank,state)
// outlier attribution, per-channel message timing, and fault events.
package analyze

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Schema versions the Report JSON so downstream consumers can detect
// drift; bump on any incompatible change.
const Schema = "pilot-analyze/2"

// Detector names, as they appear in Finding.Detector. Stable strings:
// the labelled corpus keys its recall assertions on them.
const (
	// DetHotspot: one channel carries most of the run's in-flight
	// message latency (messages sit unread in a mailbox).
	DetHotspot = "hotspot-channel"
	// DetImbalance: a channel's send count differs from its recv count —
	// on a completed run, a structural loss (crashed reader, aborted
	// writer, truncated log).
	DetImbalance = "send-recv-imbalance"
	// DetStraggler: one occurrence of a blocking state ran far longer
	// than every other occurrence of the same state (a straggling rank
	// holding up its cohort).
	DetStraggler = "barrier-straggler"
	// DetBacklog: a channel's outstanding (sent-but-unread) message
	// count grew past a floor and the reader stayed silent — the
	// growing-mailbox pattern of a stalled consumer.
	DetBacklog = "mailbox-backlog"
	// DetDominator: a rank spent a dominating share of its wall time
	// blocked in output operations — the critical-path signature of a
	// slow link or delayed sends (clean Pilot writes are eager and
	// near-instant, so output-blocked time is structurally ~0).
	DetDominator = "blocked-dominator"
	// DetFault: the trace carries injected-fault or deadlock events;
	// each is correlated to its rank and op for the report.
	DetFault = "fault-correlation"
)

// Options tunes an analysis; a window is AnalyzeFileWindowed's.
type Options struct {
	// MaxMsgEvents caps how many message halves the pass keeps in all (a
	// memory bound on hostile or enormous traces), shared among the
	// header's ranks: rank r keeps its first MaxMsgEvents/n halves in its
	// time order, one more when r < MaxMsgEvents%n, for a header of n
	// ranks. So no more than MaxMsgEvents are kept, and which ones does
	// not depend on the worker count nor on how the log lays its ranks
	// out. Past a rank's share the timing detectors run on what was kept
	// and the report is marked truncated. Zero means 1<<22.
	MaxMsgEvents int
}

// msgShare is rank's share of the cap on message halves, among the
// numRanks ranks of a log's header.
func (o Options) msgShare(numRanks int, rank int32) int {
	if numRanks <= 0 {
		return o.MaxMsgEvents
	}
	n := o.MaxMsgEvents / numRanks
	if int(rank) < o.MaxMsgEvents%numRanks {
		n++
	}
	return n
}

func (o Options) withDefaults() Options {
	if o.MaxMsgEvents == 0 {
		o.MaxMsgEvents = 1 << 22
	}
	return o
}

// Thresholds is the detector tuning, echoed into every report so a
// verdict is reproducible from its own JSON.
type Thresholds struct {
	// HotspotMinSec is the minimum total in-flight latency (sum of
	// recv-send over matched messages) a channel needs before it can be
	// a hotspot; HotspotShare is the minimum fraction of the whole
	// run's in-flight latency it must carry.
	HotspotMinSec float64 `json:"hotspot_min_sec"`
	HotspotShare  float64 `json:"hotspot_share"`

	// StragglerMinSec is the absolute floor on the outlier occurrence;
	// StragglerFactor is how many times longer than the baseline (the
	// larger of the state's second-longest occurrence and its p50) the
	// outlier must run.
	StragglerMinSec float64 `json:"straggler_min_sec"`
	StragglerFactor float64 `json:"straggler_factor"`

	// BacklogMin is the outstanding-message floor; BacklogDwellSec is
	// how long the backlog must sit at or above that floor with the
	// reader silent.
	BacklogMin      int     `json:"backlog_min"`
	BacklogDwellSec float64 `json:"backlog_dwell_sec"`

	// DominatorShare is the minimum fraction of a rank's wall time
	// spent output-blocked; DominatorMinSec the absolute floor.
	DominatorShare  float64 `json:"dominator_share"`
	DominatorMinSec float64 `json:"dominator_min_sec"`
}

// calibrated is the one tuning the detectors run with, set against the
// labelled chaos corpus: low enough that every seeded pathology fires,
// high enough that clean runs of the example programs stay silent on a
// loaded CI machine.
var calibrated = Thresholds{
	HotspotMinSec:   0.1,
	HotspotShare:    0.6,
	StragglerMinSec: 0.15,
	StragglerFactor: 8,
	BacklogMin:      8,
	BacklogDwellSec: 0.05,
	DominatorShare:  0.4,
	DominatorMinSec: 0.1,
}

// Finding is one detector verdict. Rank and Channel are -1 when the
// finding is not scoped to one.
type Finding struct {
	Detector string `json:"detector"`
	// Severity is "warning" for detected pathologies and "info" for
	// fault-correlation entries (the fault is the cause being
	// reported, not a symptom).
	Severity string  `json:"severity"`
	Rank     int     `json:"rank"`
	Channel  int     `json:"channel"`
	State    string  `json:"state,omitempty"`
	Time     float64 `json:"time,omitempty"`
	// Value is the measured magnitude (seconds or count, per
	// detector); Threshold the floor it crossed.
	Value     float64 `json:"value,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	Detail    string  `json:"detail"`
}

// Report is the schema-versioned verdict document.
type Report struct {
	Schema   string `json:"schema"`
	NumRanks int    `json:"num_ranks"`
	// Records counts the non-definition records analyzed: the profile's
	// totals.records.
	Records int64 `json:"records"`
	// WallSec spans the earliest to latest analyzed record timestamp.
	WallSec float64 `json:"wall_sec"`
	// Window is present on windowed analyses only: the profile's own.
	Window *stats.ProfileWindow `json:"window,omitempty"`
	// UsedIndex reports whether a windowed profile was answered
	// through the log's block table.
	UsedIndex bool `json:"used_index,omitempty"`
	// ClockSuspect means matched messages were observed with recv
	// timestamps before their send (skewed or synthetic clocks); the
	// message-timing detectors (hotspot, backlog) are skipped because
	// their arithmetic would be meaningless.
	ClockSuspect bool `json:"clock_suspect,omitempty"`
	// MsgEventsTruncated means a rank's message-timing capture hit
	// Options.MaxMsgEvents; timing detectors ran on what was kept.
	MsgEventsTruncated bool `json:"msg_events_truncated,omitempty"`

	Thresholds Thresholds `json:"thresholds"`
	Findings   []Finding  `json:"findings"`
	Clean      bool       `json:"clean"`
}

// sortFindings orders findings deterministically for stable JSON and
// golden snapshots.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Detector != b.Detector {
			return a.Detector < b.Detector
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Channel != b.Channel {
			return a.Channel < b.Channel
		}
		if a.State != b.State {
			return a.State < b.State
		}
		return a.Time < b.Time
	})
}

// JSON renders the report indented with a trailing newline, like
// stats.Profile.JSON.
func (r *Report) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Format renders the report as human-readable text.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pilot-analyze report (%s)\n", r.Schema)
	fmt.Fprintf(&b, "ranks %d  records %d  wall %.6fs\n", r.NumRanks, r.Records, r.WallSec)
	if r.ClockSuspect {
		b.WriteString("note: non-causal message timestamps; timing detectors skipped\n")
	}
	if r.MsgEventsTruncated {
		b.WriteString("note: message-timing capture truncated at the cap\n")
	}
	if r.Clean {
		b.WriteString("clean: no pathologies detected\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%d finding(s):\n", len(r.Findings))
	for _, f := range r.Findings {
		loc := ""
		if f.Rank >= 0 {
			loc += fmt.Sprintf(" rank=%d", f.Rank)
		}
		if f.Channel >= 0 {
			loc += fmt.Sprintf(" chan=%d", f.Channel)
		}
		if f.State != "" {
			loc += " state=" + f.State
		}
		fmt.Fprintf(&b, "  [%s] %s%s: %s\n", f.Severity, f.Detector, loc, f.Detail)
	}
	return b.String()
}
