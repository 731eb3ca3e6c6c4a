// The logging-overhead harness behind `pilot-bench -overhead`: the
// Section III.E question ("what does logging cost per call?") answered
// at micro scale. Where RunT1 times whole table cells, RunOverhead
// isolates the per-Pilot-call cost — ns/op, B/op, allocs/op — of the
// logging hot path itself, with logging on and off, at increasing rank
// and message counts, and writes the result as BENCH_overhead.json so
// `make bench-compare` can hold future changes to it.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/mpe"
	"repro/internal/mpi"
	"repro/internal/stats"
)

// prePRNsOp records the pre-optimisation ns/op of the micro rows,
// measured on the reference machine (single-core Xeon 2.10 GHz,
// -benchtime 200x) before the fixed-cargo records, chunked arenas and
// append-style cargo builders landed. They ride along in the JSON so a
// fresh run shows the improvement without digging through git history.
// Pre-PR allocation figures for the same rows: state_start_end 651 B/op,
// finish_merge_8x1000 5,929,805 B/op and 14,579 allocs/op.
var prePRNsOp = map[string]float64{
	"mpe/state_start_end|on":     182.1,
	"mpe/state_start_end|off":    4.715,
	"mpe/finish_merge_8x1000|on": 5636040,
}

// OverheadRow is one measured cell: a micro benchmark of a single
// logging call, or a ping-pong workload cell where every op folds
// CallsPerOp Pilot calls (the ns/op is already divided down to one
// call).
type OverheadRow struct {
	// Name identifies the benchmark ("mpe/state_start_end", "pingpong").
	Name string `json:"name"`
	// Logging is "on" (MPE buffers records) or "off" (the no-service
	// baseline the paper's table compares against).
	Logging string `json:"logging"`
	// Transport names the rank substrate for transport ping-pong rows
	// ("inproc", "socket", "tcp"); empty for every other row.
	Transport string `json:"transport,omitempty"`
	// Ranks and Messages scale the workload rows (0 for micro rows).
	Ranks    int `json:"ranks,omitempty"`
	Messages int `json:"messages,omitempty"`
	// CallsPerOp is how many Pilot calls one op covers; NsPerOp, BPerOp
	// and AllocsPerOp are already per single call.
	CallsPerOp  int     `json:"calls_per_op,omitempty"`
	NsPerOp     float64 `json:"ns_op"`
	BPerOp      float64 `json:"b_op"`
	AllocsPerOp float64 `json:"allocs_op"`
	// PrePRNsPerOp and ImprovementPct compare against the recorded
	// pre-optimisation numbers, where they exist.
	PrePRNsPerOp   float64 `json:"pre_pr_ns_op,omitempty"`
	ImprovementPct float64 `json:"improvement_pct,omitempty"`
}

func (r OverheadRow) key() string {
	k := r.Name + "|" + r.Logging
	if r.Transport != "" {
		k += "|" + r.Transport
	}
	return k
}

// String renders the row for the pilot-bench console output.
func (r OverheadRow) String() string {
	s := fmt.Sprintf("%-28s log=%-3s %12.1f ns/op %10.1f B/op %8.2f allocs/op",
		r.Name, r.Logging, r.NsPerOp, r.BPerOp, r.AllocsPerOp)
	if r.Ranks > 0 {
		s = fmt.Sprintf("%-28s log=%-3s %12.1f ns/call %9.1f B/call %7.2f allocs/call  (W=%d M=%d)",
			r.Name, r.Logging, r.NsPerOp, r.BPerOp, r.AllocsPerOp, r.Ranks, r.Messages)
	}
	if r.Transport != "" {
		s += "  transport=" + r.Transport
	}
	if r.PrePRNsPerOp > 0 {
		s += fmt.Sprintf("  pre-PR %.1f (%+.0f%%)", r.PrePRNsPerOp, -r.ImprovementPct)
	}
	return s
}

// OverheadReport is the BENCH_overhead.json schema.
type OverheadReport struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	// Micro rows are single logging calls; Workload rows are ping-pong
	// table cells with the ns/op divided down to one Pilot call.
	Micro    []OverheadRow `json:"micro"`
	Workload []OverheadRow `json:"workload"`
	// IndexQuery rows measure seek-based ".idx" sidecar queries against
	// the full scan on a synthesized large log (pilot-bench's -index-mb
	// flag sizes it); informational, never gated by CompareOverhead.
	IndexQuery []IndexQueryRow `json:"index_query,omitempty"`
}

// WriteJSON writes the report, indented, to path.
func (r *OverheadReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadOverheadReport loads a BENCH_overhead.json.
func ReadOverheadReport(path string) (*OverheadReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r OverheadReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// finish fills an OverheadRow from a benchmark result, dividing down to
// one Pilot call and attaching the pre-PR baseline if recorded.
func finishRow(row OverheadRow, res testing.BenchmarkResult) OverheadRow {
	calls := row.CallsPerOp
	if calls <= 0 {
		calls = 1
	}
	n := float64(res.N) * float64(calls)
	row.NsPerOp = float64(res.T.Nanoseconds()) / n
	row.BPerOp = float64(res.MemBytes) / n
	row.AllocsPerOp = float64(res.MemAllocs) / n
	if pre, ok := prePRNsOp[row.key()]; ok {
		row.PrePRNsPerOp = pre
		if pre > 0 {
			row.ImprovementPct = (pre - row.NsPerOp) / pre * 100
		}
	}
	return row
}

// microLogger builds a one-rank logger for the micro rows.
func microLogger(enabled bool) (*mpe.Logger, mpe.StateID, mpe.EventID) {
	w := mpi.NewWorld(1, mpi.Options{})
	g := mpe.NewGroup(w, enabled)
	sid := g.DescribeState("PI_Write", "green")
	eid := g.DescribeEvent("MsgDeparture", "white")
	return g.Logger(0), sid, eid
}

// discardEvery bounds arena growth during open-ended benchmark loops:
// recycling the chunks every 1024 iterations is the steady state a real
// run reaches through Finish, at a per-op cost in the noise.
const discardEvery = 1024

func benchStatePair(enabled bool) testing.BenchmarkResult {
	l, sid, _ := microLogger(enabled)
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.StateStart(sid, "line: x.go:1")
			l.StateEnd(sid, "")
			if i%discardEvery == discardEvery-1 {
				l.Discard()
			}
		}
	})
}

func benchEventBytes() testing.BenchmarkResult {
	l, _, eid := microLogger(true)
	var cb mpe.Cargo
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.EventBytes(eid, cb.Reset().KV("chan", "C1").Str(" val: ").Int(42).Bytes())
			if i%discardEvery == discardEvery-1 {
				l.Discard()
			}
		}
	})
}

func benchLogSend() testing.BenchmarkResult {
	l, _, _ := microLogger(true)
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.LogSend(1, 2, 64)
			if i%discardEvery == discardEvery-1 {
				l.Discard()
			}
		}
	})
}

func benchFinishMerge() testing.BenchmarkResult { return benchFinishMergeMode(false) }

// benchFinishMergeMode times the 8-rank wrap-up merge, plain or with the
// inline ".idx" builder riding along (FinishIndexed) — the pair of rows
// the index-emission budget is gated on.
func benchFinishMergeMode(indexed bool) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := mpi.NewWorld(mergeRanks, mpi.Options{})
			g := mpe.NewGroup(w, true)
			sid := g.DescribeState("PI_Write", "green")
			errs := w.Run(func(r *mpi.Rank) error {
				l := g.Logger(r.ID())
				for j := 0; j < mergePairs; j++ {
					l.StateStart(sid, "line: bench.go:1")
					l.StateEnd(sid, "cargo")
				}
				var out io.Writer
				if r.ID() == 0 {
					out = discardWriter{}
				}
				if indexed {
					_, err := l.FinishIndexed(out)
					return err
				}
				return l.Finish(out)
			})
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

func nsPerOp(r testing.BenchmarkResult) float64 {
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

func allocsPerOp(r testing.BenchmarkResult) float64 {
	return float64(r.MemAllocs) / float64(r.N)
}

// faster keeps the lower-ns/op of two measurements of the same bench.
func faster(a, b testing.BenchmarkResult) testing.BenchmarkResult {
	if nsPerOp(b) < nsPerOp(a) {
		return b
	}
	return a
}

// best3 measures fn three times and keeps the fastest run. Min ns/op is
// the noise-robust micro-benchmark estimator on a shared machine —
// interference only ever adds time — and since both the committed
// baseline and the -compare re-measurement go through it, the
// regression gate stops tripping on load-mode jitter.
func best3(fn func() testing.BenchmarkResult) testing.BenchmarkResult {
	best := fn()
	for i := 0; i < 2; i++ {
		best = faster(best, fn())
	}
	return best
}

// indexBudgetNs is what emitting the sidecar inline may add to the
// wrap-up for each record it indexes. Measured: 8.1-14.5 ns a record, six
// interleaved pairs of one-second runs of the 8x1000 merge on the 2-CPU
// bench box (+130 to +233 µs on 1.25-1.54 ms; two map lookups and a
// handful of comparisons a record). The budget used to be a share of the
// merge's time (5 %); that made it a statement about the merge, and when
// the merge stopped re-encoding what it was sent the same 8 ns became
// 9-10 % of it.
const indexBudgetNs = 25

// The 8x1000 merge: ranks, state pairs a rank, and the records one op
// indexes (the pairs and a timeshift a rank, and the one definition).
const (
	mergeRanks, mergePairs = 8, 1000
	mergeRecords           = mergeRanks*(2*mergePairs+1) + 1
)

// mergeBudgetHolds checks the inline-index emission budget: at most
// indexBudgetNs a record over the plain merge and no extra allocations
// beyond run noise (the merge itself allocates hundreds per op for world
// setup; the builder must add none in steady state, so a 1% +
// small-constant band covers scheduler jitter without hiding a real
// per-record leak).
func mergeBudgetHolds(plain, indexed testing.BenchmarkResult) bool {
	if nsPerOp(indexed)-nsPerOp(plain) > indexBudgetNs*mergeRecords {
		return false
	}
	return allocsPerOp(indexed) <= allocsPerOp(plain)*1.01+16
}

// benchStatsObserve times one live-metrics observation — the cost the
// stats collector adds to every instrumented send. "off" measures the
// nil-collector gate, the disabled state every run without -pistats
// pays.
func benchStatsObserve(enabled bool) testing.BenchmarkResult {
	var c *stats.Collector
	if enabled {
		c = stats.New(4)
		c.SetChannels(8)
	}
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.SendObserved(1, 3, 128, 250)
		}
	})
}

func benchSpillStatePair(dir string, batch int) (testing.BenchmarkResult, error) {
	w := mpi.NewWorld(1, mpi.Options{})
	g := mpe.NewGroup(w, true)
	g.EnableSpill(filepath.Join(dir, fmt.Sprintf("spill-batch%d.clog2", batch)))
	g.SetSpillBatch(batch)
	sid := g.DescribeState("PI_Write", "green")
	if err := g.SpillDefs(); err != nil {
		return testing.BenchmarkResult{}, err
	}
	l := g.Logger(0)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.StateStart(sid, "line: x.go:1")
			l.StateEnd(sid, "")
			if i%discardEvery == discardEvery-1 {
				l.Discard()
			}
		}
	})
	return res, l.SpillError()
}

// benchPingPong times one overhead-table-style cell: workers parallel
// round trips, msgs messages per worker, 4 Pilot calls per message
// (main PI_Write + worker PI_Read + worker PI_Write + main PI_Read).
// One benchmark op is a whole run including runtime setup and teardown;
// finishRow divides the result down to a single call.
func benchPingPong(workers, msgs int, services, dir string, metrics bool) (testing.BenchmarkResult, error) {
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := core.Config{
				NumProcs:     workers + 1,
				Services:     services,
				CheckLevel:   3,
				JumpshotPath: filepath.Join(dir, "pingpong.clog2"),
				Metrics:      metrics,
			}
			r, err := core.NewRuntime(cfg)
			if err != nil {
				benchErr = err
				b.FailNow()
			}
			to := make([]*core.Channel, workers)
			from := make([]*core.Channel, workers)
			worker := func(self *core.Self, index int, arg any) int {
				var v int
				for j := 0; j < msgs; j++ {
					if err := to[index].Read("%d", &v); err != nil {
						return 1
					}
					if err := from[index].Write("%d", v+1); err != nil {
						return 1
					}
				}
				return 0
			}
			for wi := 0; wi < workers; wi++ {
				p, err := r.CreateProcess(worker, wi, nil)
				if err != nil {
					benchErr = err
					b.FailNow()
				}
				if to[wi], err = r.CreateChannel(r.MainProc(), p); err != nil {
					benchErr = err
					b.FailNow()
				}
				if from[wi], err = r.CreateChannel(p, r.MainProc()); err != nil {
					benchErr = err
					b.FailNow()
				}
			}
			if _, err := r.StartAll(); err != nil {
				benchErr = err
				b.FailNow()
			}
			for j := 0; j < msgs; j++ {
				for wi := 0; wi < workers; wi++ {
					if err := to[wi].Write("%d", j); err != nil {
						benchErr = err
						b.FailNow()
					}
				}
				for wi := 0; wi < workers; wi++ {
					var v int
					if err := from[wi].Read("%d", &v); err != nil {
						benchErr = err
						b.FailNow()
					}
					if v != j+1 {
						benchErr = fmt.Errorf("pingpong: got %d, want %d", v, j+1)
						b.FailNow()
					}
				}
			}
			if err := r.StopMain(0); err != nil {
				benchErr = err
				b.FailNow()
			}
		}
	})
	return res, benchErr
}

// RunOverhead measures the logging hot path: micro rows time single MPE
// calls (state pair, solo event via the cargo builder, message-arrow
// half, the 8-rank Finish merge, and the spill write-through at batch 1
// vs 64); workload rows time ping-pong cells at increasing rank and
// message counts with logging on and off, divided down to ns per Pilot
// call. The report carries the recorded pre-optimisation ns/op so the
// improvement is visible in the JSON itself.
func RunOverhead(opt Options) (*OverheadReport, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	rep := &OverheadReport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}

	addMicro := func(row OverheadRow, res testing.BenchmarkResult) {
		row = finishRow(row, res)
		rep.Micro = append(rep.Micro, row)
		opt.logf("OV %s", row)
	}
	addMicro(OverheadRow{Name: "mpe/state_start_end", Logging: "on", CallsPerOp: 2}, best3(func() testing.BenchmarkResult { return benchStatePair(true) }))
	addMicro(OverheadRow{Name: "mpe/state_start_end", Logging: "off", CallsPerOp: 2}, best3(func() testing.BenchmarkResult { return benchStatePair(false) }))
	addMicro(OverheadRow{Name: "mpe/event_bytes", Logging: "on"}, best3(benchEventBytes))
	addMicro(OverheadRow{Name: "mpe/log_send", Logging: "on"}, best3(benchLogSend))
	// The merge with and without the inline index builder, gated in-run:
	// emitting the sidecar may cost at most indexBudgetNs a record and no
	// extra steady-state allocations (the pooled Builder is the whole
	// point). Interleaved best-of-N per mode, sampling until the budget
	// holds or six rounds are spent: the per-mode minima only converge
	// downward, so a genuinely over-budget builder still fails every
	// round, while scheduler jitter on a ~1.3ms/op benchmark (routinely
	// ±10% between two 1-second measurements) stops producing false
	// alarms.
	mergePlain := benchFinishMerge()
	mergeIndexed := benchFinishMergeMode(true)
	for round := 1; round < 6 && !mergeBudgetHolds(mergePlain, mergeIndexed); round++ {
		opt.logf("OV merge+index over budget, re-measuring (round %d)", round+1)
		mergePlain = faster(mergePlain, benchFinishMerge())
		mergeIndexed = faster(mergeIndexed, benchFinishMergeMode(true))
	}
	if !mergeBudgetHolds(mergePlain, mergeIndexed) {
		return nil, fmt.Errorf(
			"overhead: inline index emission blew its budget: merge %.0f ns/op %.1f allocs/op, indexed %.0f ns/op %.1f allocs/op (budget: <=%d ns a record over %d records, no extra allocs)",
			nsPerOp(mergePlain), allocsPerOp(mergePlain), nsPerOp(mergeIndexed), allocsPerOp(mergeIndexed), indexBudgetNs, mergeRecords)
	}
	addMicro(OverheadRow{Name: "mpe/finish_merge_8x1000", Logging: "on"}, mergePlain)
	addMicro(OverheadRow{Name: "mpe/finish_merge_idx_8x1000", Logging: "on"}, mergeIndexed)
	// The live-metrics observation cost: "on" is one SendObserved through
	// the per-rank shard and channel cell, "off" the nil-collector gate.
	addMicro(OverheadRow{Name: "stats/send_observed", Logging: "on"}, best3(func() testing.BenchmarkResult { return benchStatsObserve(true) }))
	addMicro(OverheadRow{Name: "stats/send_observed", Logging: "off"}, best3(func() testing.BenchmarkResult { return benchStatsObserve(false) }))
	// Spill write-through at batch 1 vs 64.
	for _, batch := range []int{1, 64} {
		var res testing.BenchmarkResult
		for i := 0; i < 3; i++ {
			r, err := benchSpillStatePair(opt.OutDir, batch)
			if err != nil {
				return nil, fmt.Errorf("spill batch %d: %w", batch, err)
			}
			if i == 0 {
				res = r
			} else {
				res = faster(res, r)
			}
		}
		addMicro(OverheadRow{
			Name: fmt.Sprintf("mpe/spill_state_pair/batch=%d", batch), Logging: "on", CallsPerOp: 2,
		}, res)
	}

	cells := []struct{ workers, msgs int }{
		{2, 500}, {4, 500}, {8, 500}, {4, 2000},
	}
	variants := []struct {
		services string
		metrics  bool
		logging  string
	}{
		{"", false, "off"},
		{"j", false, "on"},
		// Logging plus the live stats collector: the full observability
		// cost a `-pistats` run pays per Pilot call.
		{"j", true, "on+stats"},
	}
	for _, c := range cells {
		for _, v := range variants {
			logging := v.logging
			res, err := benchPingPong(c.workers, c.msgs, v.services, opt.OutDir, v.metrics)
			if err != nil {
				return nil, fmt.Errorf("pingpong W=%d M=%d log=%s: %w", c.workers, c.msgs, logging, err)
			}
			row := finishRow(OverheadRow{
				Name: "pingpong", Logging: logging,
				Ranks: c.workers, Messages: c.msgs,
				CallsPerOp: 4 * c.workers * c.msgs,
			}, res)
			rep.Workload = append(rep.Workload, row)
			opt.logf("OV %s", row)
		}
	}

	// Transport rows: raw round trips per rank substrate, the in-process
	// baseline next to the multi-process wire (pilot-bench's -transport
	// flag selects which; the multi-process rows re-execute the host
	// binary, so only binaries with a TransportPingPongChild hook can run
	// them).
	for _, tr := range opt.Transports {
		res, err := benchTransportPingPong(tr, opt.SpawnCommand)
		if err != nil {
			return nil, fmt.Errorf("transport pingpong %s: %w", tr, err)
		}
		row := finishRow(OverheadRow{
			Name: "transport_pingpong", Logging: "off", Transport: tr,
			Ranks: 2, CallsPerOp: 2,
		}, res)
		rep.Workload = append(rep.Workload, row)
		opt.logf("OV %s", row)
	}
	return rep, nil
}

// OverheadDelta is one row's baseline-vs-fresh comparison.
type OverheadDelta struct {
	Name    string
	Logging string
	// OldNs and NewNs are ns/op (per Pilot call for workload rows).
	OldNs, NewNs float64
	// Pct is the relative change, positive = slower.
	Pct float64
	// Gated marks micro rows, the ones a regression fails on; workload
	// cells carry scheduler noise and are reported but not gated.
	Gated bool
	// Regressed is set when a gated row got slower than the tolerance.
	Regressed bool
}

func (d OverheadDelta) String() string {
	verdict := "ok  "
	if d.Regressed {
		verdict = "FAIL"
	} else if !d.Gated {
		verdict = "info"
	}
	return fmt.Sprintf("%s %-32s log=%-3s %12.1f -> %10.1f ns/op (%+.1f%%)",
		verdict, d.Name, d.Logging, d.OldNs, d.NewNs, d.Pct)
}

// CompareOverhead diffs a fresh report against a baseline: micro rows
// whose ns/op regressed by more than tolPct percent AND by more than an
// absolute 25ns noise floor fail; workload rows are informational. Rows
// present on only one side are skipped.
func CompareOverhead(baseline, fresh *OverheadReport, tolPct float64) (deltas []OverheadDelta, regressed bool) {
	index := func(rows []OverheadRow) map[string]OverheadRow {
		m := make(map[string]OverheadRow, len(rows))
		for _, r := range rows {
			key := r.key()
			if r.Ranks > 0 {
				key = fmt.Sprintf("%s|%d|%d", key, r.Ranks, r.Messages)
			}
			m[key] = r
		}
		return m
	}
	diff := func(old, new map[string]OverheadRow, gated bool) {
		for key, b := range old {
			f, ok := new[key]
			if !ok || b.NsPerOp <= 0 {
				continue
			}
			d := OverheadDelta{
				Name: b.Name, Logging: b.Logging,
				OldNs: b.NsPerOp, NewNs: f.NsPerOp,
				Pct:   (f.NsPerOp - b.NsPerOp) / b.NsPerOp * 100,
				Gated: gated,
			}
			// Sub-100ns rows sit below the absolute noise floor of a
			// shared machine (CPU frequency modes alone swing a 40ns
			// loop by ±15ns between runs), so a relative gate needs an
			// absolute-delta escape hatch: a row only regresses when it
			// is over tolerance AND the delta exceeds the floor. Rows in
			// the µs/ms range are unaffected — 25ns is invisible there.
			const noiseFloorNs = 25
			d.Regressed = gated && d.Pct > tolPct && f.NsPerOp-b.NsPerOp > noiseFloorNs
			if d.Regressed {
				regressed = true
			}
			deltas = append(deltas, d)
		}
	}
	diff(index(baseline.Micro), index(fresh.Micro), true)
	diff(index(baseline.Workload), index(fresh.Workload), false)
	sort.Slice(deltas, func(i, j int) bool {
		a, b := deltas[i], deltas[j]
		if a.Gated != b.Gated {
			return a.Gated
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Logging < b.Logging
	})
	return deltas, regressed
}
