// Command bench is the repository's benchmark: four workloads that between
// them exercise every layer of the Pilot logging pipeline, measured from
// outside through the layers' public functions.
//
//	bench -workload pingpong -seed 1 -seconds 25 -trace 0
//
// runs one workload and prints every metric as "name workload value unit",
// then one JSON object on the last line. With -trace 0 the metrics are the
// end-to-end ones, measured with tracing off; with -trace 1 they are the
// per-layer ones, from a traced pass that also writes trace-<workload>.json.
// Without -workload the command runs every workload both ways, each in a
// child process of its own, and writes bench.json; with -repeat it runs two
// sets of untraced runs of the same code, alternately, and fails unless they
// agree within every metric's bound. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// result is the object on the last line of a workload run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload run writes to <out>/<workload>-trace<n>.json.
type report struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	// Reps is the number of journey repetitions measured.
	Reps int `json:"reps"`
	// GrantedShare is the share of the processor time the whole run asked
	// for that the hypervisor granted, cpu / (cpu + steal).
	GrantedShare float64 `json:"granted_share"`
	// JourneyWallS and SetupWallS are the medians of the wall times as they
	// passed; journey_s and setup_s are these times the share granted while
	// they were measured.
	JourneyWallS float64 `json:"journey_wall_s,omitempty"`
	SetupWallS   float64 `json:"setup_wall_s,omitempty"`
	Result       result  `json:"result"`
	// Named holds the workload's own user-visible metrics (tracing off).
	Named map[string]metric `json:"named,omitempty"`
	// Tails holds, for each timing with enough samples, the highest
	// percentile that has at least ten samples beyond it.
	Tails    []tail   `json:"tails,omitempty"`
	Failures []string `json:"failures,omitempty"`
}

// tail is one reported tail percentile with its sample count.
type tail struct {
	Name       string  `json:"name"`
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Samples    int     `json:"samples"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	repeat   bool
	short    bool // the tiny scale, which only the tests set
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all, each in a child process)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 25, "how long one run measures")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: traced pass, per-layer metrics")
	flag.StringVar(&o.out, "out", "bench/out", "directory for reports, traces and scratch files")
	flag.BoolVar(&o.repeat, "repeat", false, "run two sets of runs alternately and fail unless they agree within the bounds")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fatal(err)
	}
	var err error
	switch {
	case o.workload != "":
		err = runWorkload(o)
	case o.repeat:
		err = runRepeat(o)
	default:
		err = runSuite(o)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// A run sets up several times, so that setup_s is a median: at least
// minSetups times, then until setupBudget seconds are spent or maxSetups is
// reached. A write that meets a journal commit stalls for longer than a
// cheap set-up takes, so the cheaper the set-up the more of them the median
// needs.
const (
	minSetups   = 5
	maxSetups   = 15
	setupBudget = 3.0
)

// runWorkload runs one workload in this process and prints its result.
func runWorkload(o options) error {
	sc := fullScale
	if o.short {
		sc = shortScale
	}
	work, err := os.MkdirTemp(o.out, "work-"+o.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	rep := &report{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	chk := &checker{}
	whole := startGrant()
	var w workload
	var setupSecs []float64
	setups := startGrant()
	for i, spent := 0, 0.0; ; i++ {
		if w, err = newWorkload(o.workload, sc, chk); err != nil {
			return err
		}
		dir := filepath.Join(work, fmt.Sprintf("setup%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return err
		}
		secs, err := timed(func() error { return w.setup(dir, o.seed) })
		if err != nil {
			return fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		setupSecs = append(setupSecs, secs)
		spent += secs
		// The traced pass does not report setup_s and sets up once.
		if n := i + 1; o.trace != 0 || n >= maxSetups || n >= minSetups && spent >= setupBudget {
			break
		}
		os.RemoveAll(dir)
	}
	setupShare := setups.share()

	var metrics map[string]metric
	if o.trace == 0 {
		metrics, err = measure(w, sc, o.seconds, rep)
		if err == nil {
			rep.SetupWallS = median(setupSecs)
			metrics["setup_s"] = metric{rep.SetupWallS * setupShare, "s"}
		}
	} else {
		metrics, err = measureTraced(w, sc, o, work, chk, rep)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s is %v", o.workload, name, m.Value)
		}
	}
	// Only setup_s and journey_s are corrected by the share granted. Every
	// other time is a wall time as it passed: say when the machine withheld
	// enough to spoil them.
	if rep.GrantedShare = whole.share(); rep.GrantedShare < 0.9 {
		fmt.Fprintf(os.Stderr, "bench: the hypervisor granted only %.0f%% of the processor time this run asked for: its named and per-layer times are inflated, run it again on a calmer machine\n", rep.GrantedShare*100)
	}

	rep.Result = result{Correct: chk.failed == 0, Attempted: chk.ops, Failed: chk.failed, Metrics: metrics}
	rep.Failures = chk.failures
	printMetrics(o.workload, metrics)
	printMetrics(o.workload, rep.Named)
	if o.trace == 0 {
		fmt.Printf("journey_wall_s %s %.6g s\nsetup_wall_s %s %.6g s\n", o.workload, rep.JourneyWallS, o.workload, rep.SetupWallS)
	}
	fmt.Printf("granted_share %s %.6g ratio\n", o.workload, rep.GrantedShare)
	for _, t := range rep.Tails {
		fmt.Printf("%s.p%g %s %.6g %s (n=%d)\n", t.Name, t.Percentile, o.workload, t.Value, t.Unit, t.Samples)
	}
	fmt.Printf("ops %s %d count\nfailed_ops %s %d count\n", o.workload, chk.ops, o.workload, chk.failed)
	for _, f := range chk.failures {
		fmt.Fprintln(os.Stderr, "bench: check failed:", f)
	}
	if err := writeJSON(filepath.Join(o.out, fmt.Sprintf("%s-trace%d.json", o.workload, o.trace)), rep); err != nil {
		return err
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if chk.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed their check", o.workload, chk.failed, chk.ops)
	}
	return nil
}

func printMetrics(workload string, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%s %s %.6g %s\n", name, workload, metrics[name].Value, metrics[name].Unit)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// repeatUntil calls rep at least minReps times and then for as long as one
// more repetition is expected to end within the budget.
func repeatUntil(seconds float64, minReps int, rep func(i int) error) error {
	var spent []float64
	total := 0.0
	for i := 0; i < minReps || total+median(spent) <= seconds; i++ {
		secs, err := timed(func() error { return rep(i) })
		if err != nil {
			return err
		}
		spent = append(spent, secs)
		total += secs
	}
	return nil
}

// measure runs the journey with tracing off for the given time and returns
// the end-to-end metrics but setup_s.
func measure(w workload, sc scale, seconds float64, rep *report) (map[string]metric, error) {
	m := &meter{}
	var journeys []float64
	grant := startGrant()
	err := repeatUntil(seconds, sc.minReps, func(int) error {
		secs, err := w.rep(nil, m)
		journeys = append(journeys, secs)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.Reps = len(journeys)
	rep.JourneyWallS = median(journeys)
	rep.Named = w.named()
	rep.Tails = tails(rep.Workload, w.sampled(), journeys)
	return map[string]metric{
		"journey_s":        {rep.JourneyWallS * grant.share(), "s"},
		"journey_cpu_s":    {median(m.cpu), "s"},
		"journey_alloc_mb": {median(m.alloc), "MB"},
		"peak_rss_mb":      {median(m.rss), "MB"},
	}, nil
}

// tails applies the percentile rule to the journey and to every timing the
// workload sampled.
func tails(workload string, smp *samples, journeys []float64) []tail {
	var out []tail
	add := func(name, unit string, xs []float64) {
		if p, ok := tailPercentile(len(xs)); ok {
			out = append(out, tail{name, p, percentile(xs, p), unit, len(xs)})
		}
	}
	add("journey_s", "s", journeys)
	names := make([]string, 0, len(smp.m))
	for name := range smp.m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		unit := "ms" // tile_cold_ms and tile_warm_ms, the pooled tile latencies
		for _, d := range named[workload] {
			if d.Name == name {
				unit = d.Unit
			}
		}
		add(name, unit, smp.m[name])
	}
	return out
}

// measureTraced runs the traced pass: after one repetition that grows the
// heap, journey repetitions alternately with and without the tracer for
// half of the time, then the layer battery, and returns the per-layer
// metrics.
func measureTraced(w workload, sc scale, o options, work string, chk *checker, rep *report) (map[string]metric, error) {
	if _, err := w.rep(nil, &meter{}); err != nil {
		return nil, err
	}
	tr := newTracer()
	// The two repetitions of a pair run back to back, and which goes first
	// alternates: see battery.postRun.
	var ratios []float64
	err := repeatUntil(o.seconds/2, 2, func(i int) error {
		tr.setRep(i)
		order := []*tracer{tr, nil}
		if i%2 == 1 {
			order = []*tracer{nil, tr}
		}
		var traced, untraced float64
		for _, t := range order {
			secs, err := w.rep(t, &meter{})
			if err != nil {
				return err
			}
			if t != nil {
				traced = secs
			} else {
				untraced = secs
			}
		}
		ratios = append(ratios, traced/untraced)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.Reps = len(ratios)
	tr.setRep(-1)

	dir := filepath.Join(work, "battery")
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, err
	}
	b := &battery{tr: tr, sc: sc, dir: dir, chk: chk, out: map[string]metric{}}
	// The logs of these two are the ones ISSUE 11 holds the stage sum to; a
	// log of the tests' size is registered in too few milliseconds for it.
	b.checkStageSum = !o.short && (o.workload == "thumbnail" || o.workload == "bigtrace")
	if err := b.run(w); err != nil {
		return nil, fmt.Errorf("layer battery: %w", err)
	}
	b.set("trace_overhead_pct", (median(ratios)-1)*100)
	for _, d := range perLayer {
		if _, ok := b.out[d.Name]; !ok {
			return nil, fmt.Errorf("layer battery did not measure %s", d.Name)
		}
	}
	if err := tr.write(filepath.Join(o.out, "trace-"+o.workload+".json"), o.workload, o.seed); err != nil {
		return nil, err
	}
	return b.out, nil
}
