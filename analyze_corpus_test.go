// The labelled corpus behind pilot-analyze: the three example programs
// run under seeded fault plans (op-level and wire-level), each plan
// labelled with the pathology it plants, and the analyzer must achieve
// recall 1.0 — every planted pathology flagged by its detector — while
// staying completely quiet on clean runs (zero false positives). The
// diff half of the tool is held to the acceptance criterion directly:
// for a seeded stall, crash and wire-fault scenario, `-diff` against a
// clean twin must localize the first divergent rank/op.
//
// Wired into CI as `make smoke-analyze`.
package repro_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/analyze"
	"repro/internal/core"
	"repro/internal/lab2"
	"repro/internal/mpi"
	"repro/internal/stats"
	"repro/internal/thumbnail"
)

// corpusLab2 runs one lab2 configuration (W=4, so ranks 0..4) with the
// given fault spec ("" = clean) and returns the diagnosed outcome. The
// CLOG-2 lands at clog; robust turns on spill-file salvage so crashed
// runs still leave a log.
func corpusLab2(t *testing.T, name, clog, spec, services string, robust bool) string {
	t.Helper()
	var plan *mpi.FaultPlan
	if spec != "" {
		p, err := mpi.ParseFaultPlan(spec)
		if err != nil {
			t.Fatalf("%s: bad spec %q: %v", name, spec, err)
		}
		plan = p
	}
	cfg := lab2.Config{W: 4, NUM: 400, Seed: 1}
	cfg.Core = core.Config{
		Services:      services,
		CheckLevel:    3,
		DeadlockGrace: 250 * time.Millisecond,
		ArrowSpread:   -1,
		RobustLog:     robust,
		JumpshotPath:  clog,
		NativePath:    clog + ".log",
		Stderr:        io.Discard,
		Faults:        plan,
	}
	runErr := withDeadline(t, name, 60*time.Second, func() error {
		_, err := lab2.Run(cfg)
		return err
	})
	return classify(runErr)
}

// corpusThumbnail runs the thumbnail pipeline (rank 0 = PI_MAIN, rank 1
// = the compressor C, ranks 2.. = decompressors D_i).
func corpusThumbnail(t *testing.T, name, clog, spec string, workers, images int) string {
	t.Helper()
	var plan *mpi.FaultPlan
	if spec != "" {
		p, err := mpi.ParseFaultPlan(spec)
		if err != nil {
			t.Fatalf("%s: bad spec %q: %v", name, spec, err)
		}
		plan = p
	}
	cfg := thumbnail.Config{
		Workers: workers, NumImages: images, ImageW: 64, ImageH: 48, Seed: 3,
		Core: core.Config{
			Services:     "j",
			CheckLevel:   3,
			ArrowSpread:  -1,
			JumpshotPath: clog,
			NativePath:   clog + ".log",
			Stderr:       io.Discard,
			Faults:       plan,
		},
	}
	runErr := withDeadline(t, name, 90*time.Second, func() error {
		_, err := thumbnail.Run(cfg)
		return err
	})
	return classify(runErr)
}

// mustAnalyze analyzes one corpus log, failing the test on any decode or
// analysis error — a corpus log that cannot be analyzed is itself a bug.
// The log is analyzed beside a doctored profile, and the verdict must be
// the one its own bytes give.
func mustAnalyze(t *testing.T, name, clog string) *analyze.Report {
	t.Helper()
	plantDoctoredProfile(t, clog)
	rep, err := analyze.AnalyzeFile(clog, analyze.Options{})
	if err != nil {
		t.Fatalf("%s: analyze %s: %v", name, clog, err)
	}
	assertVerdictOfTheLog(t, name, clog, rep)
	return rep
}

// plantDoctoredProfile writes beside clog a .profile.json that agrees
// with the log on its record count and on nothing a detector reads:
// every state's p50 is 1s, which would hide a straggler, and every
// channel counts one send more, which would report an imbalance.
func plantDoctoredProfile(t *testing.T, clog string) {
	t.Helper()
	p, err := stats.ComputeProfileFile(clog)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.States {
		p.States[i].P50Sec = 1
	}
	for i := range p.Channels {
		p.Channels[i].Sends++
	}
	if err := p.WriteJSON(strings.TrimSuffix(clog, ".clog2") + ".profile.json"); err != nil {
		t.Fatal(err)
	}
}

// assertVerdictOfTheLog fails unless rep is byte for byte the verdict
// Analyze gives from a plain reading of clog.
func assertVerdictOfTheLog(t *testing.T, name, clog string, rep *analyze.Report) {
	t.Helper()
	f, err := os.Open(clog)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want, err := analyze.Analyze(f, analyze.Options{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got, _ := rep.JSON()
	if wantJSON, _ := want.JSON(); !bytes.Equal(got, wantJSON) {
		t.Fatalf("%s: AnalyzeFile differs from Analyze of the log's bytes:\n%s\nwant:\n%s", name, got, wantJSON)
	}
}

// Every golden log, beside a doctored profile, gets its own verdict.
func TestGoldenVerdictsReadTheLogAlone(t *testing.T) {
	for _, name := range []string{"lab2", "collisions", "thumbnail"} {
		data, err := os.ReadFile(goldenPath(name + ".clog2"))
		if err != nil {
			t.Fatal(err)
		}
		clog := filepath.Join(t.TempDir(), name+".clog2")
		if err := os.WriteFile(clog, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, _ := mustAnalyze(t, name, clog).JSON()
		if want, _ := os.ReadFile(goldenPath(name + ".analyze.json")); !bytes.Equal(got, want) {
			t.Errorf("%s: verdict beside a doctored profile differs from the golden", name)
		}
	}
}

// TestAnalyzeCorpusCleanRuns is the zero-false-positive half of the
// corpus: each example program, run fault-free with MPE logging, must
// analyze to a completely clean verdict.
func TestAnalyzeCorpusCleanRuns(t *testing.T) {
	t.Run("lab2", func(t *testing.T) {
		t.Parallel()
		clog := filepath.Join(t.TempDir(), "clean-lab2.clog2")
		if outcome := corpusLab2(t, "clean lab2", clog, "", "j", false); outcome != "clean" {
			t.Fatalf("clean lab2 run ended %q", outcome)
		}
		assertCleanVerdict(t, "clean lab2", clog)
	})
	t.Run("thumbnail", func(t *testing.T) {
		t.Parallel()
		clog := filepath.Join(t.TempDir(), "clean-thumbnail.clog2")
		if outcome := corpusThumbnail(t, "clean thumbnail", clog, "", 3, 12); outcome != "clean" {
			t.Fatalf("clean thumbnail run ended %q", outcome)
		}
		assertCleanVerdict(t, "clean thumbnail", clog)
	})
	t.Run("collisions", func(t *testing.T) {
		t.Parallel()
		clog := filepath.Join(t.TempDir(), "clean-collisions.clog2")
		if outcome := corpusCollisions(t, "clean collisions", clog, ""); outcome != "clean" {
			t.Fatalf("clean collisions run ended %q", outcome)
		}
		assertCleanVerdict(t, "clean collisions", clog)
	})
}

func assertCleanVerdict(t *testing.T, name, clog string) {
	t.Helper()
	rep := mustAnalyze(t, name, clog)
	if !rep.Clean || len(rep.Findings) != 0 {
		t.Fatalf("%s: detector false positive(s) on a fault-free run:\n%s", name, rep.Format())
	}
}

// analyzeCorpusCells is the labelled fault corpus: each cell is a seeded
// fault plan plus the detectors its pathology must trip. A cell may trip
// detectors beyond its label (a stalled rank is also a straggler to its
// peers); recall is what is asserted, per label.
var analyzeCorpusCells = []struct {
	name string
	// plants are the detectors that MUST fire on this cell's log.
	plants []string
	// outcome is the required diagnosed terminal state of the run.
	outcome string
	gen     func(t *testing.T, dir string) string
}{
	{
		// A 500ms stall at worker rank 2's third op (write subtotal)
		// parks that rank inside PI_Write while the master sits in
		// PI_Read waiting for it: a single outlier in each state cohort
		// (straggler, both sides) and an Output-blocked rank (dominator).
		name:    "stall-lab2",
		plants:  []string{analyze.DetStraggler, analyze.DetDominator, analyze.DetFault},
		outcome: "clean",
		gen: func(t *testing.T, dir string) string {
			clog := filepath.Join(dir, "stall-lab2.clog2")
			outcome := corpusLab2(t, "stall-lab2", clog,
				"seed=1;stall:rank=2,op=3,dur=500ms", "j", false)
			if outcome != "clean" {
				t.Fatalf("stall-lab2 ended %q, want clean", outcome)
			}
			return clog
		},
	},
	{
		// A delivery delay on worker rank 2's sends holds its subtotal
		// inside the write — the rank spends its whole wall Output-blocked
		// (dominator) and both it and the waiting master are cohort
		// outliers (straggler).
		name:    "delay-lab2",
		plants:  []string{analyze.DetStraggler, analyze.DetDominator, analyze.DetFault},
		outcome: "clean",
		gen: func(t *testing.T, dir string) string {
			clog := filepath.Join(dir, "delay-lab2.clog2")
			outcome := corpusLab2(t, "delay-lab2", clog,
				"seed=2;delay:rank=2,prob=1,dur=400ms", "j", false)
			if outcome != "clean" {
				t.Fatalf("delay-lab2 ended %q, want clean", outcome)
			}
			return clog
		},
	},
	{
		// Forcing the master's sends to rendezvous while its first
		// receiver sits in a 400ms stall blocks the master inside
		// PI_Write for nearly its whole wall time — the blocked-time
		// dominator signature on an Output state.
		name:    "rendezvous-lab2",
		plants:  []string{analyze.DetDominator, analyze.DetFault},
		outcome: "clean",
		gen: func(t *testing.T, dir string) string {
			clog := filepath.Join(dir, "rendezvous-lab2.clog2")
			outcome := corpusLab2(t, "rendezvous-lab2", clog,
				"seed=3;rendezvous:rank=0,prob=1;stall:rank=2,op=1,dur=400ms", "j", false)
			if outcome != "clean" {
				t.Fatalf("rendezvous-lab2 ended %q, want clean", outcome)
			}
			return clog
		},
	},
	{
		// One decompressor feeding a compressor that stalls 800ms before
		// its first read: PI_MAIN keeps dispatching (the D worker's
		// forwarding writes are eager), so the raw-pixel channel
		// accumulates a standing backlog deeper than the threshold and
		// carries nearly all of the run's in-flight latency (hotspot).
		name:    "backlog-thumbnail",
		plants:  []string{analyze.DetBacklog, analyze.DetHotspot, analyze.DetFault},
		outcome: "clean",
		gen: func(t *testing.T, dir string) string {
			clog := filepath.Join(dir, "backlog-thumbnail.clog2")
			outcome := corpusThumbnail(t, "backlog-thumbnail", clog,
				"seed=5;stall:rank=1,op=1,dur=800ms", 1, 12)
			if outcome != "clean" {
				t.Fatalf("backlog-thumbnail ended %q, want clean", outcome)
			}
			return clog
		},
	},
	{
		// Worker rank 2 dies at its first op (before reading anything).
		// The master's eager writes to it are already in the log, the
		// matching reads never happen, and the deadlock detector's
		// diagnosis events land in the salvaged log — imbalance plus
		// fault correlation.
		name:    "crash-lab2",
		plants:  []string{analyze.DetImbalance, analyze.DetFault},
		outcome: "deadlock",
		gen: func(t *testing.T, dir string) string {
			clog := filepath.Join(dir, "crash-lab2.clog2")
			outcome := corpusLab2(t, "crash-lab2", clog,
				"seed=4;crash:rank=2,op=1", "dj", true)
			if outcome != "deadlock" {
				t.Fatalf("crash-lab2 ended %q, want deadlock", outcome)
			}
			return clog
		},
	},
}

// TestAnalyzeCorpusRecall is the recall-1.0 half of the corpus: every
// cell's planted pathologies must be flagged by their detectors.
func TestAnalyzeCorpusRecall(t *testing.T) {
	for _, cell := range analyzeCorpusCells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			t.Parallel()
			clog := cell.gen(t, t.TempDir())
			rep := mustAnalyze(t, cell.name, clog)
			if rep.Clean {
				t.Fatalf("%s: planted %v but the verdict is clean", cell.name, cell.plants)
			}
			for _, det := range cell.plants {
				if !slices.ContainsFunc(rep.Findings, func(f analyze.Finding) bool { return f.Detector == det }) {
					t.Errorf("%s: planted pathology %q not flagged (recall < 1.0)", cell.name, det)
				}
			}
			if t.Failed() {
				t.Logf("%s verdict:\n%s", cell.name, rep.Format())
			}
		})
	}
}

// TestAnalyzeCorpusDiffStall: acceptance criterion, stall scenario. A
// stall-faulted lab2 run differs from its clean twin only by the
// FaultInjected event recorded on the stalled rank, so the diff must
// localize the first divergence to rank 2 exactly.
func TestAnalyzeCorpusDiffStall(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.clog2")
	faulted := filepath.Join(dir, "faulted.clog2")
	if outcome := corpusLab2(t, "diff-stall clean twin", clean, "", "j", false); outcome != "clean" {
		t.Fatalf("clean twin ended %q", outcome)
	}
	if outcome := corpusLab2(t, "diff-stall faulted", faulted,
		"seed=1;stall:rank=2,op=3,dur=500ms", "j", false); outcome != "clean" {
		t.Fatalf("faulted run ended %q", outcome)
	}
	rep, err := analyze.DiffFiles(clean, faulted, analyze.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Identical {
		t.Fatal("stall-faulted run diffed identical to its clean twin")
	}
	if rep.First == nil {
		t.Fatal("divergent diff reported no first divergence")
	}
	if rep.First.Rank != 2 {
		t.Fatalf("first divergence at rank %d op %d (%s), want rank 2:\n%s",
			rep.First.Rank, rep.First.Op, rep.First.Kind, rep.Format())
	}
	t.Logf("stall localized: rank %d op %d (%s)", rep.First.Rank, rep.First.Op, rep.First.Kind)
}

// TestAnalyzeCorpusDiffCrash: acceptance criterion, crash scenario. The
// crashed rank's op sequence truncates where it died; the diff against a
// clean twin must report that rank's divergence.
func TestAnalyzeCorpusDiffCrash(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.clog2")
	faulted := filepath.Join(dir, "faulted.clog2")
	if outcome := corpusLab2(t, "diff-crash clean twin", clean, "", "dj", true); outcome != "clean" {
		t.Fatalf("clean twin ended %q", outcome)
	}
	if outcome := corpusLab2(t, "diff-crash faulted", faulted,
		"seed=4;crash:rank=2,op=1", "dj", true); outcome != "deadlock" {
		t.Fatalf("faulted run ended %q, want deadlock", outcome)
	}
	rep, err := analyze.DiffFiles(clean, faulted, analyze.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Identical {
		t.Fatal("crashed run diffed identical to its clean twin")
	}
	if rep.First == nil {
		t.Fatal("divergent diff reported no first divergence")
	}
	found := false
	for _, d := range rep.Divergences {
		if d.Rank == 2 {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no divergence reported for the crashed rank 2:\n%s", rep.Format())
	}
	t.Logf("crash localized: first divergence rank %d op %d (%s)",
		rep.First.Rank, rep.First.Op, rep.First.Kind)
}

// TestAnalyzeCorpusWireFault: acceptance criterion, wire scenario. lab2
// runs over the multi-process socket transport while the injector
// resets rank 2's link; with the reconnect window collapsed to 1ns the
// transport cannot resume, so the run must end in the diagnosed
// FaultAbortCode abort, its RobustLog salvage must still analyze, and
// the diff against a clean socket twin must localize where the
// truncated run diverged. Reuses the chaos-wire spawn plumbing
// (TestChaosWireChild hosts the spawned ranks).
func TestAnalyzeCorpusWireFault(t *testing.T) {
	if mpi.Spawned() {
		t.Skip("spawned rank")
	}
	if testing.Short() {
		t.Skip("spawns rank processes; skipped in -short")
	}
	dir := t.TempDir()

	// Clean twin first, before the reconnect window is collapsed. The
	// spawn plumbing requires a parseable plan, so the twin carries one
	// rule that can never fire (frame op far beyond the run's traffic).
	clean := filepath.Join(dir, "clean.clog2")
	if err, check := chaosWireRun("lab2", clean, "seed=6;wiredelay:rank=1,op=999999,dur=1ms"); err != nil {
		t.Fatalf("clean socket twin failed: %v", err)
	} else if err := check(); err != nil {
		t.Fatalf("clean socket twin wrong outcome: %v", err)
	}

	// Collapse the reconnect window (inherited by the spawned ranks), so
	// the first wire reset on rank 2's link is unrecoverable. prob=1
	// resets rank 2's link on its very first sequenced frame: the rank
	// is starved of its input data before it can log any progress, so
	// its salvaged op sequence is guaranteed shorter than the clean
	// twin's (a lower probability can let the abort land after every
	// rank already spilled its full sequence, diffing identical).
	t.Setenv("PILOT_MPI_RECONNECT_WINDOW", "1ns")
	faulted := filepath.Join(dir, "faulted.clog2")
	runErr, _ := chaosWireRun("lab2", faulted, "seed=6;wirereset:rank=2,prob=1")
	if runErr == nil {
		t.Fatal("wire-faulted run with a 1ns reconnect window completed cleanly")
	}
	want := fmt.Sprintf("aborted with code %d", mpi.FaultAbortCode)
	if !strings.Contains(runErr.Error(), want) {
		t.Fatalf("wire-faulted run failed undiagnosed: %v (want %q)", runErr, want)
	}
	if _, err := os.Stat(faulted); err != nil {
		t.Fatalf("no salvaged log after diagnosed abort: %v", err)
	}

	// The salvaged, truncated log must analyze without error.
	rep := mustAnalyze(t, "wire-fault salvage", faulted)
	t.Logf("wire-fault salvage verdict:\n%s", rep.Format())

	diff, err := analyze.DiffFiles(clean, faulted, analyze.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if diff.Identical {
		t.Fatal("aborted wire run diffed identical to its clean twin")
	}
	if diff.First == nil {
		t.Fatal("divergent diff reported no first divergence")
	}
	t.Logf("wire fault localized: first divergence rank %d op %d (%s)",
		diff.First.Rank, diff.First.Op, diff.First.Kind)
}
