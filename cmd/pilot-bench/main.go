// Command pilot-bench regenerates every table and figure in the paper's
// evaluation:
//
//	t1  Section III.E overhead table (no-log / MPE / native; 5 and 10
//	    work processes; error-level sweep; wrap-up times)
//	f1  Fig. 1 — thumbnail application, full timeline
//	f2  Fig. 2 — thumbnail application, zoomed in
//	f3  Fig. 3 — lab2 visual log
//	f4  Fig. 4 — student instance A (serialized query processing)
//	f5  Fig. 5 — student instance B (sequential initialization)
//	a1  ablation: arrow spread vs Equal Drawables (Section III.C)
//	a2  ablation: conversion frame size (Section II.A)
//	a3  ablation: log survival across PI_Abort (Section III.B)
//
// Figures are written as SVG into -out. Absolute times depend on the
// machine; pilot-bench prints shape checks against the paper's
// qualitative claims.
//
// Usage:
//
//	pilot-bench [-exp all|t1|f1|f2|f3|f4|f5|a1|a2|a3] [-out out] [-runs 5] [-images 120] [-rows 60000] [-workers 0]
package main

import (
	_ "expvar" // registers /debug/vars on the default mux
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/mpi"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id or comma list: t1,f1,f2,f3,f4,f5,a1,a2,a3")
		outDir  = flag.String("out", "out", "output directory for figures and logs")
		runs    = flag.Int("runs", 5, "repetitions per timed cell (paper: 10)")
		images  = flag.Int("images", 120, "thumbnail batch size (paper: 1058)")
		rows    = flag.Int("rows", 60000, "collision dataset rows")
		workers = flag.Int("workers", 0, "CLOG-2 -> SLOG-2 conversion worker-pool size (0 = one per CPU)")
		faults  = flag.String("faults", "", "fault-injection plan, e.g. 'seed=7;delay:rank=*,prob=0.1,dur=2ms;crash:rank=2,op=40'")

		metricsAddr = flag.String("metrics-addr", "", "serve live metrics over HTTP on this address (expvar /debug/vars, pprof /debug/pprof); also enables the stats collector in every run")
	)
	flag.Parse()
	opt := experiments.Options{
		OutDir:  *outDir,
		Runs:    *runs,
		Images:  *images,
		Rows:    *rows,
		Workers: *workers,
		Log:     os.Stdout,
	}
	if *faults != "" {
		plan, err := mpi.ParseFaultPlan(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pilot-bench: bad -faults spec: %v\n", err)
			os.Exit(2)
		}
		opt.Faults = plan
	}
	if *metricsAddr != "" {
		opt.Metrics = true
		ln, err := newMetricsListener(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pilot-bench: -metrics-addr: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("metrics: http://%s/debug/vars (pilot_stats), /debug/pprof\n", ln.Addr())
		go func() {
			// The default mux already carries expvar and pprof via the
			// blank imports above; the live collector appears there as
			// "pilot_stats" once the first run publishes it.
			if err := http.Serve(ln, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pilot-bench: metrics server: %v\n", err)
			}
		}()
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var f1 *experiments.F1Result
	if all || want["t1"] {
		fmt.Println("== T1: overhead table (Section III.E) ==")
		rows, err := experiments.RunT1(opt)
		if err != nil {
			fail(err)
		}
		fmt.Println("-- shape checks vs paper --")
		for _, line := range experiments.T1Shape(rows) {
			fmt.Println(line)
		}
	}
	if all || want["f1"] || want["f2"] || want["a2"] {
		fmt.Println("== F1: thumbnail full timeline (Fig. 1) ==")
		var err error
		if f1, err = experiments.RunF1(opt); err != nil {
			fail(err)
		}
		if f1.ConversionErrors != 0 {
			fmt.Printf("MISS conversion errors = %d, paper reports none\n", f1.ConversionErrors)
		} else {
			fmt.Println("OK   clean CLOG-2 -> SLOG-2 conversion")
		}
	}
	if all || want["f2"] {
		fmt.Println("== F2: zoomed view (Fig. 2) ==")
		r, err := experiments.RunF2(opt, f1)
		if err != nil {
			fail(err)
		}
		verdict("compute dominates the zoomed window", r.ComputeFraction > 0.5,
			fmt.Sprintf("compute %.1f%%, I/O %.1f%%", r.ComputeFraction*100, r.IOFraction*100))
	}
	if all || want["f3"] {
		fmt.Println("== F3: lab2 visual log (Fig. 3) ==")
		r, err := experiments.RunF3(opt)
		if err != nil {
			fail(err)
		}
		verdict("6 timelines, 15/15/15 reads/writes/arrows",
			r.Timelines == 6 && r.Reads == 15 && r.Writes == 15 && r.Arrows == 15,
			fmt.Sprintf("timelines=%d reads=%d writes=%d arrows=%d", r.Timelines, r.Reads, r.Writes, r.Arrows))
		verdict("worker pattern red,red,green", r.SequencesOK, "")
		verdict("execution under ~3 ms", r.ElapsedMS < 30,
			fmt.Sprintf("%.3f ms (paper: under 3 ms on 2016 hardware)", r.ElapsedMS))
	}
	if all || want["f4"] {
		fmt.Println("== F4: instance A, serialized queries (Fig. 4) ==")
		r, err := experiments.RunF4(opt)
		if err != nil {
			fail(err)
		}
		verdict("instance A near-zero worker overlap", r.OverlapA < 0.45 && r.OverlapA < r.OverlapFixed,
			fmt.Sprintf("overlap A=%.3f vs fixed=%.3f", r.OverlapA, r.OverlapFixed))
		verdict("instance A slower than fixed", r.ElapsedASec > r.ElapsedFixedSec,
			fmt.Sprintf("A=%.3fs fixed=%.3fs", r.ElapsedASec, r.ElapsedFixedSec))
	}
	if all || want["f5"] {
		fmt.Println("== F5: instance B, sequential init (Fig. 5) ==")
		r, err := experiments.RunF5(opt)
		if err != nil {
			fail(err)
		}
		flat := r.ElapsedByWorkers[2]/r.ElapsedByWorkers[8] < 1.5
		verdict("instance B runtime flat vs workers", flat,
			fmt.Sprintf("w2=%.3fs w4=%.3fs w8=%.3fs", r.ElapsedByWorkers[2], r.ElapsedByWorkers[4], r.ElapsedByWorkers[8]))
		verdict("read phase dominates instance B", r.ReadShare > 0.5,
			fmt.Sprintf("read share %.0f%% (paper: 11 s init before fast queries)", r.ReadShare*100))
		verdict("fixed program does speed up", r.FixedSpeedup > 1.5,
			fmt.Sprintf("fixed 2->8 workers speedup %.2fx", r.FixedSpeedup))
	}
	if all || want["a1"] {
		fmt.Println("== A1: arrow spread vs Equal Drawables (Section III.C) ==")
		r, err := experiments.RunA1(opt)
		if err != nil {
			fail(err)
		}
		verdict("no spread -> Equal Drawables", r.EqualDrawablesNoSpread > 0,
			fmt.Sprintf("%d collisions", r.EqualDrawablesNoSpread))
		verdict("1 ms spread eliminates them", r.EqualDrawablesSpread == 0,
			fmt.Sprintf("%d collisions", r.EqualDrawablesSpread))
	}
	if all || want["a2"] {
		fmt.Println("== A2: conversion frame-size ablation (Section II.A) ==")
		rows, err := experiments.RunA2(opt, f1)
		if err != nil {
			fail(err)
		}
		deeper := rows[0].TreeDepth > rows[len(rows)-1].TreeDepth
		verdict("smaller frames -> deeper tree, bounded frames", deeper, "")
	}
	if all || want["a3"] {
		fmt.Println("== A3: log survival across PI_Abort (Section III.B) ==")
		r, err := experiments.RunA3(opt)
		if err != nil {
			fail(err)
		}
		verdict("MPE log lost on abort", !r.MPELogExists, "")
		verdict("native log survives abort", r.NativeLogExists,
			fmt.Sprintf("%d bytes", r.NativeLogBytes))
		verdict("future work: RobustLog salvages the visual log", r.SalvagedLogUsable,
			fmt.Sprintf("%d states recovered", r.SalvagedStates))
	}
	fmt.Printf("outputs in %s\n", *outDir)
}

// newMetricsListener binds the -metrics-addr endpoint up front so a bad
// address fails fast instead of surfacing mid-run from the goroutine.
func newMetricsListener(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

func verdict(name string, ok bool, detail string) {
	v := "OK  "
	if !ok {
		v = "MISS"
	}
	if detail != "" {
		fmt.Printf("%s %-40s %s\n", v, name, detail)
	} else {
		fmt.Printf("%s %s\n", v, name)
	}
}
