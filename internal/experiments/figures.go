package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/collisions"
	"repro/internal/jumpshot"
	"repro/internal/lab2"
	"repro/internal/thumbnail"
	"repro/vis"
)

// F1Result reports the Fig. 1 regeneration: the full thumbnail timeline.
type F1Result struct {
	// SVGPath is the rendered figure.
	SVGPath string
	// CLOGPath/SLOGPath are the underlying logs (inputs for F2 and A2).
	CLOGPath, SLOGPath string
	// States/Arrows/Events count the drawables ("thousands of Pilot
	// functions").
	States, Arrows, Events int
	// ConversionErrors must be zero: the paper's robustness claim is that
	// the SLOG-2 "can be successfully read ... without any conversion
	// errors".
	ConversionErrors int
	// Ranks is the timeline count (paper: 11 — PI_MAIN + C + 9 Ds).
	Ranks int
	File  *vis.File
}

// RunF1 regenerates Fig. 1: the thumbnail application with PI_MAIN plus
// 10 work processes (compressor + 9 decompressors), MPE logging on, full
// timeline rendered.
func RunF1(opt Options) (*F1Result, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	clog := filepath.Join(opt.OutDir, "fig1.clog2")
	cfg := opt.thumbCfg(10, "mpe", 3, clog) // 10 work procs: C + 9 Ds
	res, err := thumbnail.Run(cfg)
	if err != nil {
		return nil, err
	}
	if res.Thumbnails != opt.Images {
		return nil, fmt.Errorf("f1: %d thumbnails, want %d", res.Thumbnails, opt.Images)
	}
	slog := filepath.Join(opt.OutDir, "fig1.slog2")
	svg := filepath.Join(opt.OutDir, "fig1.svg")
	f, rep, err := vis.Pipeline(clog, slog, svg, opt.convertOpts(0),
		vis.View{Title: "Fig. 1: thumbnail application, full timeline"})
	if err != nil {
		return nil, err
	}
	// Side outputs: the interactive viewer and the load-balance chart
	// ("easy detection of load imbalance across processes").
	if err := vis.RenderHTMLFile(filepath.Join(opt.OutDir, "fig1.html"), f,
		vis.View{Title: "thumbnail application (interactive)"}); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(opt.OutDir, "fig1-stats.svg"),
		[]byte(jumpshot.RenderStatsSVG(f, f.Start, f.End, "thumbnail: per-process load")), 0o644); err != nil {
		return nil, err
	}
	out := &F1Result{
		SVGPath: svg, CLOGPath: clog, SLOGPath: slog,
		States: rep.States, Arrows: rep.Arrows, Events: rep.Events,
		ConversionErrors: rep.NestingErrors + rep.UnmatchedSends + rep.UnmatchedRecvs,
		Ranks:            f.NumRanks,
		File:             f,
	}
	opt.logf("F1 states=%d arrows=%d events=%d conversion-errors=%d ranks=%d -> %s",
		out.States, out.Arrows, out.Events, out.ConversionErrors, out.Ranks, svg)
	return out, nil
}

// F2Result reports the Fig. 2 regeneration: the zoomed view where gray
// Compute dominates and red/green I/O is tiny.
type F2Result struct {
	SVGPath string
	// Window is the zoom viewport.
	Window [2]float64
	// ComputeFraction is the share of state time that is Compute within
	// the window (paper: "most of the execution time is used for
	// computation").
	ComputeFraction float64
	// IOFraction is the PI_Read + PI_Write share ("tiny in comparison").
	IOFraction float64
}

// RunF2 regenerates Fig. 2 by zooming into the middle of an F1 run.
func RunF2(opt Options, f1 *F1Result) (*F2Result, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	if f1 == nil {
		if f1, err = RunF1(opt); err != nil {
			return nil, err
		}
	}
	f := f1.File
	span := f.End - f.Start
	t0 := f.Start + span*0.45
	t1 := f.Start + span*0.55
	svg := filepath.Join(opt.OutDir, "fig2.svg")
	if err := vis.RenderSVGFile(svg, f, vis.View{From: t0, To: t1,
		Title: "Fig. 2: thumbnail application, zoomed in"}); err != nil {
		return nil, err
	}
	out := &F2Result{
		SVGPath:         svg,
		Window:          [2]float64{t0, t1},
		ComputeFraction: jumpshot.CategoryFraction(f, "Compute", t0, t1),
		IOFraction: jumpshot.CategoryFraction(f, "PI_Read", t0, t1) +
			jumpshot.CategoryFraction(f, "PI_Write", t0, t1),
	}
	opt.logf("F2 window=[%.4f,%.4f] compute=%.1f%% io=%.1f%% -> %s",
		t0, t1, out.ComputeFraction*100, out.IOFraction*100, svg)
	return out, nil
}

// F3Result reports the Fig. 3 regeneration: the lab2 visual log.
type F3Result struct {
	SVGPath string
	// Timelines, Reads, Writes, Arrows are the structural counts: 6
	// processes, 15 reads, 15 writes, 15 arrows for W=5.
	Timelines, Reads, Writes, Arrows int
	// ElapsedMS is the total execution time in milliseconds (paper:
	// "total execution time is under 3 ms").
	ElapsedMS float64
	// SequencesOK reports that every worker shows the red, red, green
	// call pattern of Fig. 3.
	SequencesOK bool
}

// RunF3 regenerates Fig. 3: lab2 with six processes.
func RunF3(opt Options) (*F3Result, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	clog := filepath.Join(opt.OutDir, "fig3.clog2")
	cfg := lab2.Config{W: 5, NUM: 10000, Seed: 1}
	cfg.Core.Services = "j"
	cfg.Core.CheckLevel = 3
	cfg.Core.JumpshotPath = clog
	cfg.Core.Faults = opt.Faults
	cfg.Core.Metrics = opt.Metrics
	res, err := lab2.Run(cfg)
	if err != nil {
		return nil, err
	}
	svg := filepath.Join(opt.OutDir, "fig3.svg")
	f, rep, err := vis.Pipeline(clog, filepath.Join(opt.OutDir, "fig3.slog2"), svg,
		opt.convertOpts(0), vis.View{Title: "Fig. 3: lab2 visual log"})
	if err != nil {
		return nil, err
	}
	if n := rep.NestingErrors + rep.UnmatchedSends + rep.UnmatchedRecvs; n != 0 {
		return nil, fmt.Errorf("f3: %d conversion errors", n)
	}
	legend := jumpshot.Legend(f, f.Start, f.End)
	out := &F3Result{SVGPath: svg, ElapsedMS: float64(res.Elapsed.Microseconds()) / 1000}
	for _, e := range legend {
		switch e.Name {
		case "Compute":
			out.Timelines = e.Count
		case "PI_Read":
			out.Reads = e.Count
		case "PI_Write":
			out.Writes = e.Count
		}
	}
	out.Arrows = len(jumpshot.Search(f, jumpshot.SearchOptions{Name: "arrow", Rank: -1}))
	out.SequencesOK = true
	for w := 1; w <= 5; w++ {
		var seq []string
		for _, h := range jumpshot.Search(f, jumpshot.SearchOptions{Rank: w}) {
			if h.Name == "PI_Read" || h.Name == "PI_Write" {
				seq = append(seq, h.Name)
			}
		}
		if len(seq) != 3 || seq[0] != "PI_Read" || seq[1] != "PI_Read" || seq[2] != "PI_Write" {
			out.SequencesOK = false
		}
	}
	opt.logf("F3 timelines=%d reads=%d writes=%d arrows=%d elapsed=%.3fms sequences-ok=%v -> %s",
		out.Timelines, out.Reads, out.Writes, out.Arrows, out.ElapsedMS, out.SequencesOK, svg)
	return out, nil
}

// F4Result reports the Fig. 4 regeneration: student instance A.
type F4Result struct {
	SVGPath string
	// OverlapFixed and OverlapA are the query-phase busy-overlap ratios
	// of the intended program and instance A; the bug shows as
	// OverlapA ≈ 0 ("the workers never did query processing in parallel
	// at all").
	OverlapFixed, OverlapA float64
	// ElapsedFixed/ElapsedA compare total runtimes (the symptom: "failing
	// to exhibit any speedup").
	ElapsedFixedSec, ElapsedASec float64
}

// RunF4 regenerates Fig. 4: instance A versus the fixed program.
func RunF4(opt Options) (*F4Result, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	const workers = 4
	mk := func(name string) collisions.Config {
		c := collisions.Config{Workers: workers, Rows: opt.Rows, Seed: 7,
			QueryCost: 50, QuerySleepPerRow: 10 * time.Microsecond,
			ReadSleepPerRow: 2 * time.Microsecond}
		c.Core.Services = "j"
		c.Core.CheckLevel = 3
		c.Core.JumpshotPath = filepath.Join(opt.OutDir, name)
		return c
	}
	cfgF := mk("fig4-fixed.clog2")
	resF, err := collisions.RunFixed(cfgF)
	if err != nil {
		return nil, err
	}
	fF, _, err := vis.ConvertFile(cfgF.Core.JumpshotPath, opt.convertOpts(0))
	if err != nil {
		return nil, err
	}
	cfgA := mk("fig4-instA.clog2")
	resA, err := collisions.RunInstanceA(cfgA)
	if err != nil {
		return nil, err
	}
	svg := filepath.Join(opt.OutDir, "fig4.svg")
	fA, _, err := vis.Pipeline(cfgA.Core.JumpshotPath, "", svg, opt.convertOpts(0),
		vis.View{Title: "Fig. 4: instance A (serialized queries)"})
	if err != nil {
		return nil, err
	}
	ranks := make([]int, workers)
	for i := range ranks {
		ranks[i] = i + 1
	}
	queryWindow := func(f *vis.File, res *collisions.Result) (float64, float64) {
		total := res.ReadPhase + res.QueryPhase
		t0 := f.Start + (f.End-f.Start)*float64(res.ReadPhase)/float64(total)
		return t0, f.End
	}
	t0F, t1F := queryWindow(fF, resF)
	t0A, t1A := queryWindow(fA, resA)
	out := &F4Result{
		SVGPath:         svg,
		OverlapFixed:    jumpshot.BusyOverlapRatio(fF, ranks, t0F, t1F),
		OverlapA:        jumpshot.BusyOverlapRatio(fA, ranks, t0A, t1A),
		ElapsedFixedSec: resF.Elapsed.Seconds(),
		ElapsedASec:     resA.Elapsed.Seconds(),
	}
	opt.logf("F4 overlap fixed=%.3f instA=%.3f elapsed fixed=%.3fs instA=%.3fs -> %s",
		out.OverlapFixed, out.OverlapA, out.ElapsedFixedSec, out.ElapsedASec, svg)
	return out, nil
}

// F5Result reports the Fig. 5 regeneration: student instance B.
type F5Result struct {
	SVGPath string
	// ElapsedByWorkers maps worker count to total runtime: nearly flat
	// ("the total run time always stayed nearly the same").
	ElapsedByWorkers map[int]float64
	// ReadShare is the fraction of instance B's run spent in the
	// sequential read phase ("workers were kept waiting till PI_MAIN did
	// 11 seconds of initialization").
	ReadShare float64
	// FixedSpeedup is the fixed program's 2→8 worker speedup on the same
	// dataset, the contrast that makes B's flatness damning.
	FixedSpeedup float64
}

// RunF5 regenerates Fig. 5: instance B at several worker counts.
func RunF5(opt Options) (*F5Result, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	f5cfg := func(w int) collisions.Config {
		return collisions.Config{Workers: w, Rows: opt.Rows, Seed: 7,
			QueryCost: 10, QuerySleepPerRow: 500 * time.Nanosecond,
			ReadSleepPerRow: 5 * time.Microsecond}
	}
	out := &F5Result{ElapsedByWorkers: map[int]float64{}}
	for _, w := range []int{2, 4, 8} {
		cfg := f5cfg(w)
		res, err := collisions.RunInstanceB(cfg)
		if err != nil {
			return nil, err
		}
		out.ElapsedByWorkers[w] = res.Elapsed.Seconds()
		if w == 4 {
			out.ReadShare = float64(res.ReadPhase) / float64(res.ReadPhase+res.QueryPhase)
		}
	}
	// The figure itself, from a logged 4-worker run.
	cfg := f5cfg(4)
	cfg.Core.Services = "j"
	cfg.Core.JumpshotPath = filepath.Join(opt.OutDir, "fig5.clog2")
	if _, err := collisions.RunInstanceB(cfg); err != nil {
		return nil, err
	}
	svg := filepath.Join(opt.OutDir, "fig5.svg")
	if _, _, err := vis.Pipeline(cfg.Core.JumpshotPath, "", svg, opt.convertOpts(0),
		vis.View{Title: "Fig. 5: instance B (sequential initialization)"}); err != nil {
		return nil, err
	}
	out.SVGPath = svg
	// Contrast: the fixed program speeds up on the same dataset.
	var fixedTimes []float64
	for _, w := range []int{2, 8} {
		cfg := f5cfg(w)
		res, err := collisions.RunFixed(cfg)
		if err != nil {
			return nil, err
		}
		fixedTimes = append(fixedTimes, res.Elapsed.Seconds())
	}
	out.FixedSpeedup = fixedTimes[0] / fixedTimes[1]
	opt.logf("F5 instB elapsed w2=%.3fs w4=%.3fs w8=%.3fs read-share=%.0f%% fixed 2->8 speedup=%.2fx -> %s",
		out.ElapsedByWorkers[2], out.ElapsedByWorkers[4], out.ElapsedByWorkers[8],
		out.ReadShare*100, out.FixedSpeedup, svg)
	return out, nil
}
