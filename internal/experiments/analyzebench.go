// The analyzer-throughput harness behind `pilot-bench -analyze`:
// synthesize a large CLOG-2 log (the same shape the index harness uses)
// and measure a full pilot-analyze verdict pass and a self-diff over it
// — the numbers behind the "analyze" section of BENCH_overhead.json.
// The rows are informational (never gated by CompareOverhead): the
// analyzer runs offline, after a trace is collected, so its cost is a
// capacity-planning figure rather than a hot-path budget.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/analyze"
)

// DiffAllocCeilingMB is what one diff may allocate whatever the size of
// the logs: the diff keeps per-rank queues of the ops one log is ahead
// of the other by, never the sequences themselves.
const DiffAllocCeilingMB = 16

// AnalyzeRow is one analyzer measurement on the synthesized log.
type AnalyzeRow struct {
	// Name identifies the pass ("analyze_full_pass", "diff_self").
	Name string `json:"name"`
	// LogMB and Records describe the synthesized log.
	LogMB   float64 `json:"log_mb"`
	Records int64   `json:"records"`
	// P50Ns is the median wall time of the pass over the repetitions;
	// NsPerMB and MBPerSec normalize it by log size.
	P50Ns    float64 `json:"p50_ns"`
	NsPerMB  float64 `json:"ns_per_mb"`
	MBPerSec float64 `json:"mb_per_sec"`
	// Findings is how many findings the verdict carried (the synthetic
	// log's send-only message pattern trips the imbalance detector, so a
	// nonzero count here proves the detectors actually ran).
	Findings int `json:"findings"`
	// AllocMB is what one pass allocated (diff_self only, where it is
	// held under DiffAllocCeilingMB).
	AllocMB float64 `json:"alloc_mb,omitempty"`
}

// String renders the row for the pilot-bench console output.
func (r AnalyzeRow) String() string {
	s := fmt.Sprintf("%-20s %7.1f MB %10d records  p50 %12.0f ns  %10.0f ns/MB  %7.1f MB/s  (%d findings)",
		r.Name, r.LogMB, r.Records, r.P50Ns, r.NsPerMB, r.MBPerSec, r.Findings)
	if r.AllocMB > 0 {
		s += fmt.Sprintf("  %.1f MB allocated", r.AllocMB)
	}
	return s
}

// RunAnalyzeBench synthesizes a sizeMB log under opt.OutDir and measures
// the full pilot-analyze pass and a self-diff over it (median of reps
// runs each). The verdict and diff are sanity-checked before their
// timings are reported: a fast pass that missed the log's planted
// imbalance, or a self-diff that found divergences or allocated in
// proportion to the log, is a bug rather than a row.
func RunAnalyzeBench(opt Options, sizeMB, reps int) ([]AnalyzeRow, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	if sizeMB <= 0 {
		return nil, nil
	}
	if reps < 1 {
		reps = 5
	}
	path := filepath.Join(opt.OutDir, fmt.Sprintf("analyzebench-%dmb.clog2", sizeMB))
	opt.logf("AN synthesizing %d MB log at %s", sizeMB, path)
	if err := synthesizeIndexLog(path, sizeMB); err != nil {
		return nil, err
	}
	defer os.Remove(path)
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	logMB := float64(info.Size()) / (1 << 20)
	finish := func(name string, p50 float64, records int64, findings int) AnalyzeRow {
		return AnalyzeRow{
			Name:     name,
			LogMB:    logMB,
			Records:  records,
			P50Ns:    p50,
			NsPerMB:  p50 / logMB,
			MBPerSec: logMB / (p50 / 1e9),
			Findings: findings,
		}
	}
	var rows []AnalyzeRow

	// Row 1: the full verdict pass — scan, profile, every detector.
	var rep *analyze.Report
	p50, err := medianNs(reps, func() error {
		rep, err = analyze.AnalyzeFile(path, analyze.Options{})
		return err
	})
	if err != nil {
		return nil, err
	}
	if rep.Clean {
		return nil, fmt.Errorf("analyzebench: verdict clean on the send-only synthetic log (detectors did not run)")
	}
	row := finish("analyze_full_pass", p50, rep.Records, len(rep.Findings))
	rows = append(rows, row)
	opt.logf("AN %s", row)

	// Row 2: self-diff — two scans advanced in step plus the per-rank
	// op comparison, the `pilot-analyze -diff` cost model.
	var drep *analyze.DiffReport
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	p50, err = medianNs(reps, func() error {
		drep, err = analyze.DiffFiles(path, path, analyze.DiffOptions{})
		return err
	})
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms)
	allocMB := float64(ms.TotalAlloc-alloc0) / float64(reps) / (1 << 20)
	if !drep.Identical {
		return nil, fmt.Errorf("analyzebench: self-diff reported %d divergences", len(drep.Divergences))
	}
	if allocMB > DiffAllocCeilingMB {
		return nil, fmt.Errorf("analyzebench: self-diff of a %.0f MB log allocated %.1f MB, ceiling %d MB", logMB, allocMB, DiffAllocCeilingMB)
	}
	row = finish("diff_self", p50, rep.Records, 0)
	row.AllocMB = allocMB
	rows = append(rows, row)
	opt.logf("AN %s", row)
	return rows, nil
}
