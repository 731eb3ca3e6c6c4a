package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// suiteReport is what a run of several workloads writes to <out>/<file>.
type suiteReport struct {
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	// Runs holds the workload reports in the order they ran.
	Runs []report `json:"runs"`
}

func newSuiteReport(seed int64) *suiteReport {
	return &suiteReport{GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed}
}

// runChild runs one workload in a child process of its own, so that memory
// and collector state are per run, and returns the report it wrote.
func runChild(o options, workload string, trace int) (report, error) {
	var rep report
	self, err := os.Executable()
	if err != nil {
		return rep, err
	}
	cmd := exec.Command(self,
		"-workload", workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace),
		"-out", o.out)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return rep, fmt.Errorf("%s -trace %d: %w", workload, trace, err)
	}
	data, err := os.ReadFile(filepath.Join(o.out, fmt.Sprintf("%s-trace%d.json", workload, trace)))
	if err != nil {
		return rep, err
	}
	return rep, json.Unmarshal(data, &rep)
}

// runSuite runs every workload with tracing off and then traced, and writes
// the collected reports to <out>/bench.json.
func runSuite(o options) error {
	suite := newSuiteReport(o.seed)
	for _, w := range workloadNames {
		for trace := 0; trace <= 1; trace++ {
			rep, err := runChild(o, w, trace)
			if err != nil {
				return err
			}
			suite.Runs = append(suite.Runs, rep)
		}
	}
	return writeJSON(filepath.Join(o.out, "bench.json"), suite)
}

// repeatRuns is how many runs of each workload a set of -repeat holds.
const repeatRuns = 3

// runRepeat measures the same code in two sets of repeatRuns untraced runs
// per workload, the runs of the two sets alternating so that a machine that
// is slower in one quarter of an hour than in the next slows both alike. It
// fails when the medians of the two sets differ by more than the bound on
// any gated metric: the end-to-end ones by BENCHMARK.json's bounds, the
// workload's named ones by ISSUE 11's. A metric whose runs spread wider than
// its bound is reported as unresolved: its medians agree, but on this
// machine this many runs cannot hold it to that bound. A failed operation
// has already failed its run; how many operations a run attempts depends on
// how many repetitions fit its time, so those counts are not compared.
func runRepeat(o options) error {
	sets := [2]*suiteReport{newSuiteReport(o.seed), newSuiteReport(o.seed)}
	differ, open := 0, 0
	for _, w := range workloadNames {
		var values [2]map[string][]float64
		for i := range values {
			values[i] = map[string][]float64{}
		}
		for run := 0; run < repeatRuns; run++ {
			for i, set := range sets {
				rep, err := runChild(o, w, 0)
				if err != nil {
					return err
				}
				set.Runs = append(set.Runs, rep)
				for name, m := range rep.Result.Metrics {
					values[i][name] = append(values[i][name], m.Value)
				}
				for name, m := range rep.Named {
					values[i][name] = append(values[i][name], m.Value)
				}
			}
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), named[w]...) {
			if len(values[0][d.Name]) < repeatRuns || len(values[1][d.Name]) < repeatRuns {
				return fmt.Errorf("repeat: %s did not report %s in every run", w, d.Name)
			}
			c := compare(d, values[0][d.Name], values[1][d.Name])
			fmt.Printf("repeat %-14s %-18s %12.6g %12.6g %+7.1f%% (bound %2.0f%%, spread %4.1f%%) %s\n",
				w, d.Name, c.first, c.second, c.worsePct, d.Bound*100, c.spreadPct, c.verdict)
			switch c.verdict {
			case worse, better:
				differ++
			case unresolved:
				open++
			}
		}
	}
	for i, file := range []string{"bench-first.json", "bench-second.json"} {
		if err := writeJSON(filepath.Join(o.out, file), sets[i]); err != nil {
			return err
		}
	}
	fmt.Printf("repeat: %d comparisons differ by more than their bound, %d are unresolved\n", differ, open)
	if differ > 0 {
		return fmt.Errorf("repeat: two sets of runs of the same code differ by more than the bound on %d comparisons", differ)
	}
	return nil
}
