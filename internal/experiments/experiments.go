// Package experiments regenerates every table and figure in the paper's
// evaluation: the Section III.E overhead table (T1), the five figures
// (F1–F5), and ablations for the design choices the paper calls out (A1
// arrow spread vs Equal Drawables, A2 conversion frame size, A3 log
// survival across PI_Abort). cmd/pilot-bench prints the rows; the
// repository-root benchmarks wrap the same entry points.
package experiments

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/thumbnail"
	"repro/vis"
)

// Options scales the experiments. The defaults run the whole suite on a
// laptop in tens of seconds; the paper's full-size parameters (1058
// images, 316 MB of CSV) are reachable by raising them.
type Options struct {
	// OutDir receives figure SVGs and logfiles ("" = temp dir, discarded).
	OutDir string
	// Runs is the repetition count for timed rows (paper: 10).
	Runs int
	// Images is the thumbnail batch size (paper: 1058).
	Images int
	// ImageW/ImageH size the synthetic images.
	ImageW, ImageH int
	// Rows is the collision dataset size.
	Rows int
	// StageDelay is the per-image think time of the pipeline stages.
	// Real DCT work alone cannot exhibit wall-clock speedup on a machine
	// with fewer cores than the paper's cluster nodes, so the scaling
	// rows model stage cost as think time on top of the real codec work
	// (documented as a substitution in DESIGN.md). Default 8 ms.
	StageDelay time.Duration
	// Workers sizes the CLOG-2 → SLOG-2 conversion worker pool
	// (0 = one per CPU); results are byte-identical at any setting.
	Workers int
	// Faults optionally installs a deterministic fault-injection plan
	// into every workload run (pilot-bench's -faults flag; see
	// mpi.ParseFaultPlan for the spec grammar).
	Faults *mpi.FaultPlan
	// Metrics enables the live stats collector in every workload run
	// (pilot-bench's -metrics-addr flag serves the collected numbers).
	Metrics bool
	// Log receives progress lines (nil = silent).
	Log io.Writer
}

// convertOpts builds the conversion options every experiment uses.
func (o Options) convertOpts(frameCapacity int) vis.ConvertOptions {
	return vis.ConvertOptions{FrameCapacity: frameCapacity, Workers: o.Workers}
}

func (o Options) withDefaults() (Options, error) {
	if o.Runs <= 0 {
		o.Runs = 5
	}
	if o.Images <= 0 {
		o.Images = 120
	}
	if o.ImageW == 0 {
		o.ImageW = 192
	}
	if o.ImageH == 0 {
		o.ImageH = 128
	}
	if o.Rows <= 0 {
		o.Rows = 60000
	}
	if o.StageDelay == 0 {
		o.StageDelay = 8 * time.Millisecond
	}
	if o.OutDir == "" {
		dir, err := os.MkdirTemp("", "pilot-bench")
		if err != nil {
			return o, err
		}
		o.OutDir = dir
	} else if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return o, err
	}
	return o, nil
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// median returns the median and sample variance of xs (in seconds).
func medianVar(xs []float64) (med, variance float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	var mean float64
	for _, x := range s {
		mean += x
	}
	mean /= float64(n)
	for _, x := range s {
		variance += (x - mean) * (x - mean)
	}
	if n > 1 {
		variance /= float64(n - 1)
	}
	return med, variance
}

// T1Row is one row of the Section III.E overhead table.
type T1Row struct {
	// WorkProcs is the paper's "work processes" count (compressor + Ds).
	WorkProcs int
	// Mode is "nolog", "mpe" (Jumpshot) or "native".
	Mode string
	// Level is the error-check level.
	Level int
	// MedianSec and Variance summarise Runs repetitions, as the paper
	// reports ("median execution time calculated [variance shown in
	// brackets]").
	MedianSec float64
	Variance  float64
	// WrapUpSec is the median MPE wrap-up cost (mpe mode only).
	WrapUpSec float64
}

// String renders the row in the paper's style.
func (r T1Row) String() string {
	s := fmt.Sprintf("work=%2d level=%d %-7s %8.3fs [%0.4f]", r.WorkProcs, r.Level, r.Mode, r.MedianSec, r.Variance)
	if r.Mode == "mpe" {
		s += fmt.Sprintf("  wrap-up %6.3fs", r.WrapUpSec)
	}
	return s
}

// thumbCfg builds a thumbnail config for a T1 cell. The slot budget is
// 1 (PI_MAIN) + workProcs, exactly the paper's "5 or 10 work processes
// (plus one for PI_MAIN)". The native log's service process displaces one
// decompressor within that budget, as on the paper's cluster.
func (o Options) thumbCfg(workProcs int, mode string, level int, clogPath string) thumbnail.Config {
	cfg := thumbnail.Config{
		NumImages:  o.Images,
		ImageW:     o.ImageW,
		ImageH:     o.ImageH,
		Seed:       42,
		StageDelay: o.StageDelay,
		Core: core.Config{
			CheckLevel:   level,
			JumpshotPath: clogPath,
			NativePath:   clogPath + ".native.log",
			Faults:       o.Faults,
			Metrics:      o.Metrics,
		},
	}
	switch mode {
	case "mpe":
		cfg.Core.Services = "j"
		cfg.Workers = workProcs - 1 // minus the compressor
	case "native":
		cfg.Core.Services = "c"
		cfg.Workers = workProcs - 2 // one D displaced by the service rank
	default:
		cfg.Workers = workProcs - 1
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	return cfg
}

// RunT1 regenerates the overhead table: no logging vs MPE logging vs
// native logging at 5 and 10 work processes (error level 3), plus an
// error-check-level sweep demonstrating the paper's finding that the
// level is "essentially inconsequential".
func RunT1(opt Options) ([]T1Row, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	type cell struct {
		work  int
		mode  string
		level int
	}
	cells := []cell{
		{5, "nolog", 3}, {5, "mpe", 3}, {5, "native", 3},
		{10, "nolog", 3}, {10, "mpe", 3}, {10, "native", 3},
		{5, "nolog", 0}, {5, "nolog", 1}, {5, "nolog", 2},
	}
	var rows []T1Row
	for _, c := range cells {
		var times, wraps []float64
		for run := 0; run < opt.Runs; run++ {
			clog := filepath.Join(opt.OutDir, fmt.Sprintf("t1-%s-%d.clog2", c.mode, c.work))
			cfg := opt.thumbCfg(c.work, c.mode, c.level, clog)
			cfg.Seed = int64(run) // vary inputs across repetitions
			res, err := thumbnail.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("t1 %s/%d run %d: %w", c.mode, c.work, run, err)
			}
			if res.Thumbnails != opt.Images {
				return nil, fmt.Errorf("t1 %s/%d: %d thumbnails, want %d", c.mode, c.work, res.Thumbnails, opt.Images)
			}
			times = append(times, res.Elapsed.Seconds())
			if c.mode == "mpe" {
				wraps = append(wraps, res.WrapUp.Seconds())
			}
		}
		med, v := medianVar(times)
		row := T1Row{WorkProcs: c.work, Mode: c.mode, Level: c.level, MedianSec: med, Variance: v}
		if len(wraps) > 0 {
			row.WrapUpSec, _ = medianVar(wraps)
		}
		rows = append(rows, row)
		opt.logf("T1 %s", row)
	}
	return rows, nil
}

// T1Shape checks the qualitative claims of the table against measured
// rows and returns human-readable verdicts: MPE ≈ no-log; native slower
// (a worker displaced); near-2× speedup from 5→10; error level
// immaterial; wrap-up sub-second at this scale.
func T1Shape(rows []T1Row) []string {
	get := func(work int, mode string, level int) *T1Row {
		for i := range rows {
			r := &rows[i]
			if r.WorkProcs == work && r.Mode == mode && r.Level == level {
				return r
			}
		}
		return nil
	}
	var out []string
	check := func(name string, ok bool, detail string) {
		verdict := "OK "
		if !ok {
			verdict = "MISS"
		}
		out = append(out, fmt.Sprintf("%s %-34s %s", verdict, name, detail))
	}
	n5, m5, v5 := get(5, "nolog", 3), get(5, "mpe", 3), get(5, "native", 3)
	n10, m10, v10 := get(10, "nolog", 3), get(10, "mpe", 3), get(10, "native", 3)
	if n5 == nil || m5 == nil || v5 == nil || n10 == nil || m10 == nil || v10 == nil {
		return append(out, "MISS incomplete table")
	}
	check("MPE ~ no-log (5 work)", m5.MedianSec < n5.MedianSec*1.15,
		fmt.Sprintf("mpe %.3fs vs nolog %.3fs (paper: 30.03 vs 30.97)", m5.MedianSec, n5.MedianSec))
	check("MPE ~ no-log (10 work)", m10.MedianSec < n10.MedianSec*1.15,
		fmt.Sprintf("mpe %.3fs vs nolog %.3fs (paper: 14.42 vs 14.42)", m10.MedianSec, n10.MedianSec))
	check("native slower, 5 work", v5.MedianSec > n5.MedianSec*1.1,
		fmt.Sprintf("native %.3fs vs nolog %.3fs (paper: 40.64 vs 30.97)", v5.MedianSec, n5.MedianSec))
	check("native penalty shrinks at 10", v10.MedianSec/n10.MedianSec < v5.MedianSec/n5.MedianSec,
		fmt.Sprintf("ratios %.2f vs %.2f (paper: 1.12 vs 1.31)", v10.MedianSec/n10.MedianSec, v5.MedianSec/n5.MedianSec))
	check("speedup 5 -> 10 work", n10.MedianSec < n5.MedianSec*0.75,
		fmt.Sprintf("%.3fs -> %.3fs (paper: 30.97 -> 14.42, 'nice speedup')", n5.MedianSec, n10.MedianSec))
	check("wrap-up bearable", m5.WrapUpSec < m5.MedianSec && m10.WrapUpSec < 5,
		fmt.Sprintf("%.3fs / %.3fs (paper: 0.74 / 0.84)", m5.WrapUpSec, m10.WrapUpSec))
	l0, l3 := get(5, "nolog", 0), get(5, "nolog", 3)
	if l0 != nil && l3 != nil {
		diff := math.Abs(l0.MedianSec-l3.MedianSec) / l3.MedianSec
		check("error level inconsequential", diff < 0.2,
			fmt.Sprintf("level0 %.3fs vs level3 %.3fs (%.0f%%)", l0.MedianSec, l3.MedianSec, diff*100))
	}
	return out
}
