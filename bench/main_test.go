package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{7, 0, false},
		{39, 0, false},
		{40, 75, true},
		{100, 90, true},
		{200, 95, true},
		{600, 95, true}, // 1% of 600 is only six samples
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %v", m)
	}
	if m := median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("median of four = %v", m)
	}
	if p := percentile(xs, 99); p != 5 {
		t.Errorf("p99 of five = %v", p)
	}
	if p := percentile(xs, 50); p != 3 {
		t.Errorf("p50 of five = %v", p)
	}
	if xs[0] != 5 {
		t.Error("median or percentile sorted the caller's slice")
	}
}

func TestGrantedShare(t *testing.T) {
	// Three seconds used while one was withheld: three quarters granted.
	if g := grantedShare(3, 1); g != 0.75 {
		t.Errorf("grantedShare(3, 1) = %v", g)
	}
	// No steal reported, or nothing measured: the wall time stands.
	for _, c := range [][2]float64{{3, 0}, {0, 1}, {0, 0}, {3, -0.01}} {
		if g := grantedShare(c[0], c[1]); g != 1 {
			t.Errorf("grantedShare(%v, %v) = %v, want 1", c[0], c[1], g)
		}
	}
}

// The p99 of the cold tiles is a named metric only when ten tiles lie beyond
// it; with fewer the percentile rule's own tail stands in among the tails.
func TestColdP99NeedsTenTilesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want bool
	}{{999, false}, {1000, true}, {1224, true}} {
		s := &serveSession{base: base{name: "serve_session"}}
		for i := 0; i < c.n; i++ {
			s.smp.add("tile_cold_ms", float64(i))
		}
		if _, ok := s.named()["tile_cold_p99_ms"]; ok != c.want {
			t.Errorf("%d cold tiles: tile_cold_p99_ms reported %v, want %v", c.n, ok, c.want)
		}
		if _, ok := s.named()["tile_cold_p50_ms"]; !ok {
			t.Errorf("%d cold tiles: no tile_cold_p50_ms", c.n)
		}
	}
	if n := fullScale.minReps * fullScale.coldTiles; n < 1000 {
		t.Errorf("a run of full scale is sure of only %d cold tiles, p99 needs 1000", n)
	}
}

// Two clients' requests overlap under one phase: the phase's self time is
// what neither covers, not its duration minus the sum of theirs.
func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "serve.cold", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "serve.request", Start: 1, End: 5},
		{ID: 3, Parent: 1, Name: "serve.request", Start: 3, End: 8},
		{ID: 4, Parent: 1, Name: "serve.request", Start: 4, End: 6}, // inside the others
		{ID: 5, Parent: 1, Name: "serve.request", Start: 9, End: 12},
		{ID: 6, Parent: 2, Name: "jumpshot.tile", Start: 2, End: 3},
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 2, 2: 3, 3: 5, 4: 2, 5: 3, 6: 1}
	for id, w := range want {
		if math.Abs(self[id]-w) > 1e-12 {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	layers := layerSelfSeconds(spans)
	if math.Abs(layers["serve"]-15) > 1e-12 || math.Abs(layers["jumpshot"]-1) > 1e-12 {
		t.Errorf("layer self times = %v", layers)
	}
}

// The stage sum is held to its band by the middle half of the pairs: stages
// that leave a tenth out fail the run, a noisy median alone does not.
func TestStageSumBand(t *testing.T) {
	for _, c := range []struct {
		name   string
		ratios []float64
		failed int
	}{
		{"in the band", []float64{0.97, 1.02, 0.99, 1.01, 1.04, 0.96}, 0},
		{"a stage left out", []float64{0.88, 0.91, 0.86, 0.93, 0.90, 0.97}, 1},
		{"a stage done twice", []float64{1.12, 1.08, 1.15, 1.02, 1.11, 1.09}, 1},
		{"median out, quartiles straddle", []float64{0.85, 0.93, 0.94, 0.94, 0.97, 1.03}, 0},
	} {
		b := &battery{chk: &checker{}}
		b.checkStageSumBand(c.ratios)
		if b.chk.failed != c.failed {
			t.Errorf("%s: %d failed checks, want %d: %v", c.name, b.chk.failed, c.failed, b.chk.failures)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v", q1, q3)
	}
}

func TestCompare(t *testing.T) {
	lower := metricDef{Name: "journey_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "session_req_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(xs []float64, k float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * k
		}
		return out
	}
	noisy := []float64{0.80, 1.25, 0.90, 1.15, 1.00, 0.85, 1.20, 1.00, 0.95, 1.10}
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, unchanged},
		{"within bound", lower, steady, scale(steady, 1.08), unchanged},
		{"slower", lower, steady, scale(steady, 1.15), worse},
		{"faster", lower, steady, scale(steady, 0.80), better},
		{"lower throughput", higher, steady, scale(steady, 0.85), worse},
		{"higher throughput", higher, steady, scale(steady, 1.20), better},
		{"single runs", lower, []float64{1}, []float64{1.2}, worse},
		// The parent's own runs spread wider than the bound: a 5% shift
		// cannot be called unchanged, nor a 15% one worse.
		{"spread hides no change", lower, noisy, scale(noisy, 1.05), unresolved},
		{"spread hides a regression", lower, noisy, scale(noisy, 1.15), unresolved},
		// Unless every run of one side beats every run of the other.
		{"spread but disjoint", lower, noisy, scale(noisy, 0.5), better},
	}
	for _, c := range cases {
		if got := compare(c.d, c.a, c.b); got.verdict != c.want {
			t.Errorf("%s: verdict %q (%+.1f%%), want %q", c.name, got.verdict, got.worsePct, c.want)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json that repeats the command's
// own tables.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json must list exactly the workloads and metrics the command
// emits, within the limits the driver sets.
func TestBenchmarkFileMatchesCommand(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkFile
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloadNames) || len(bm.Workloads) < 2 || len(bm.Workloads) > 8 {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(bm.Workloads), len(workloadNames))
	}
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the allowed character set", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range bm.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the command", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
		checkName(w.Name)
	}
	same := func(kind string, listed, emitted []metricDef, limit int) {
		if len(listed) != len(emitted) || len(listed) < 1 || len(listed) > limit {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the command emits %d (limit %d)", len(listed), kind, len(emitted), limit)
		}
		for i, l := range listed {
			if l != emitted[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the command %+v", kind, i, l, emitted[i])
			}
			if !unitRE.MatchString(l.Unit) {
				t.Errorf("unit %q of %s is outside the allowed character set", l.Unit, l.Name)
			}
			if l.Bound < 0 || l.Bound > 0.25 {
				t.Errorf("bound %v of %s is outside [0, 0.25]", l.Bound, l.Name)
			}
			checkName(l.Name)
		}
	}
	same("end-to-end", bm.EndToEnd, endToEnd, 16)
	same("per-layer", bm.PerLayer, perLayer, 128)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Error("the first end-to-end metric must be setup_s in seconds, lower is better")
	}
}

// The named metrics -repeat gates are ISSUE 11's: with setup_s and
// peak_rss_mb they make its fourteen, each workload's are its own, and the
// bounds are the issue's.
func TestNamedMetricsAreTheIssues(t *testing.T) {
	distinct := map[string]bool{"setup_s": true, "peak_rss_mb": true}
	for _, w := range workloadNames {
		if len(named[w]) == 0 {
			t.Errorf("workload %s has no named metrics", w)
		}
		seen := map[string]bool{}
		for _, d := range named[w] {
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("named metric %q with unit %q is outside the allowed character sets", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" || d.Bound < 0.10 || d.Bound > 0.15 {
				t.Errorf("named metric %+v: direction or bound is not the issue's", d)
			}
			if seen[d.Name] {
				t.Errorf("%s lists %s twice", w, d.Name)
			}
			seen[d.Name], distinct[d.Name] = true, true
			for _, e := range endToEnd {
				if e.Name == d.Name {
					t.Errorf("%s is both an end-to-end and a named metric", d.Name)
				}
			}
		}
	}
	if len(named) != len(workloadNames) || len(distinct) != 14 {
		t.Errorf("%d workloads have named metrics, %d distinct issue metrics; want %d and 14", len(named), len(distinct), len(workloadNames))
	}
}

// Every workload runs end to end at the tiny scale, both passes, with every
// check passing and exactly the declared metrics in its result.
func TestWorkloadsAtShortScale(t *testing.T) {
	for _, w := range workloadNames {
		for trace, declared := range [][]metricDef{endToEnd, perLayer} {
			t.Run(fmt.Sprintf("%s/trace%d", w, trace), func(t *testing.T) {
				out := t.TempDir()
				o := options{workload: w, seed: 1, seconds: 0.5, trace: trace, out: out, short: true}
				if err := runWorkload(o); err != nil {
					t.Fatal(err)
				}
				data, err := os.ReadFile(filepath.Join(out, fmt.Sprintf("%s-trace%d.json", w, trace)))
				if err != nil {
					t.Fatal(err)
				}
				var rep report
				if err := json.Unmarshal(data, &rep); err != nil {
					t.Fatal(err)
				}
				res := rep.Result
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v, %d attempted, %d failed: %v", res.Correct, res.Attempted, res.Failed, rep.Failures)
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("%d metrics in the result, %d declared", len(res.Metrics), len(declared))
				}
				for _, d := range declared {
					m, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s is missing", d.Name)
					} else if m.Unit != d.Unit {
						t.Errorf("metric %s has unit %q, declared %q", d.Name, m.Unit, d.Unit)
					}
				}
				if trace == 0 {
					for _, d := range endToEnd {
						if res.Metrics[d.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %v", d.Name, res.Metrics[d.Name].Value)
						}
					}
					for _, d := range named[w] {
						// A session of this scale has too few tiles for a p99.
						if d.Name == "tile_cold_p99_ms" {
							continue
						}
						if m, ok := rep.Named[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
							t.Errorf("named metric %s = %+v", d.Name, m)
						}
					}
					if len(rep.Named) > len(named[w]) {
						t.Errorf("named metrics %v are not all declared", rep.Named)
					}
				} else {
					var tf traceFile
					data, err := os.ReadFile(filepath.Join(out, "trace-"+w+".json"))
					if err != nil {
						t.Fatal(err)
					}
					if err := json.Unmarshal(data, &tf); err != nil {
						t.Fatal(err)
					}
					if len(tf.Spans) == 0 || len(tf.LayerSelfSeconds) == 0 {
						t.Error("the traced pass wrote no spans")
					}
					if d := res.Metrics["vis.decode_passes"].Value; d < 1 {
						t.Errorf("vis.decode_passes = %v", d)
					}
				}
				if left, _ := filepath.Glob(filepath.Join(out, "work-*")); len(left) > 0 {
					t.Errorf("scratch directories left behind: %v", left)
				}
			})
		}
	}
}
