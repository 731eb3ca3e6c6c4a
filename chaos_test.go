// The acceptance gate for deterministic fault injection: sweeping seeds
// over the three example workloads (lab2, thumbnail, collisions), every
// faulted run must terminate within its deadline in a diagnosed state —
// a clean exit, a deadlock report, or an ErrAborted unwind — never an
// undiagnosed hang; and replaying a seed must reproduce the identical
// outcome and, where the workload itself is deterministic, the identical
// MPE event sequence.
package repro_test

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/clog2"
	"repro/internal/collisions"
	"repro/internal/core"
	"repro/internal/lab2"
	"repro/internal/mpi"
	"repro/internal/thumbnail"
	"repro/vis"
)

// classify buckets a run's error into the three diagnosed terminal
// states the issue demands.
func classify(err error) string {
	if err == nil {
		return "clean"
	}
	s := err.Error()
	switch {
	case strings.Contains(s, "deadlock"):
		return "deadlock"
	case strings.Contains(s, "abort"):
		return "aborted"
	default:
		return "error: " + s
	}
}

// withDeadline runs f off the test goroutine and fails the test if it
// does not terminate — the "no undiagnosed hang" half of the acceptance
// criterion. Deadlines are generous because -race slows everything down.
func withDeadline(t *testing.T, name string, d time.Duration, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("%s: undiagnosed hang — run did not terminate within %v", name, d)
		return nil
	}
}

// faultStrings renders fault events for comparison; FaultEvent.String is
// a pure function of the deterministic decision, so string equality is
// event equality.
func faultStrings(evs []mpi.FaultEvent) []string {
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = ev.String()
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lab2Spec builds the fault plan for one sweep seed: background message
// delays and forced rendezvous for everyone, plus one seed-dependent
// headline fault. Workers in the W=4 lab2 world are ranks 1..4 and
// execute exactly three faultable operations each (read size, read data,
// write subtotal).
func lab2Spec(seed int) (spec string, crash bool) {
	spec = fmt.Sprintf("seed=%d;delay:prob=0.2,dur=300us;rendezvous:prob=0.2", seed)
	switch seed % 3 {
	case 0:
		spec += fmt.Sprintf(";crash:rank=2,op=%d", 2+(seed/3)%2)
		crash = true
	case 1:
		spec += ";stall:rank=1,op=2,dur=5ms"
	default:
		spec += ";jump:rank=3,op=2,sec=0.25"
	}
	return spec, crash
}

// runLab2Chaos executes one faulted lab2 run under a deadline and
// returns its diagnosed outcome plus the injected-fault trace.
func runLab2Chaos(t *testing.T, name, spec string, services, clog string) (string, []mpi.FaultEvent, *lab2.Result) {
	t.Helper()
	plan, err := mpi.ParseFaultPlan(spec)
	if err != nil {
		t.Fatalf("%s: bad spec %q: %v", name, spec, err)
	}
	cfg := lab2.Config{W: 4, NUM: 400, Seed: 1}
	cfg.Core = core.Config{
		Services:      services,
		CheckLevel:    3,
		DeadlockGrace: 250 * time.Millisecond,
		ArrowSpread:   -1,
		JumpshotPath:  clog,
		NativePath:    clog + ".log",
		Stderr:        io.Discard,
		Faults:        plan,
	}
	var res *lab2.Result
	runErr := withDeadline(t, name, 60*time.Second, func() error {
		r, err := lab2.Run(cfg)
		res = r
		return err
	})
	outcome := classify(runErr)
	var evs []mpi.FaultEvent
	if res != nil && res.Runtime != nil {
		evs = res.Runtime.World().FaultEvents()
	}
	return outcome, evs, res
}

// TestChaosLab2Sweep drives ≥20 distinct seeds through lab2 with the
// deadlock detector on. Every run must end diagnosed within its
// deadline: crash seeds as a deadlock report (CrashAuto resolves to
// CrashStop under the detector), fault-only seeds as a clean, correct
// total. Replaying a seed must reproduce the identical outcome; for
// non-crash seeds the full fault trace replays exactly, and for crash
// seeds the crashed rank's own trace replays exactly (abort timing may
// truncate how far *other* ranks get).
func TestChaosLab2Sweep(t *testing.T) {
	dir := t.TempDir()
	for seed := 1; seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			spec, crash := lab2Spec(seed)
			name := fmt.Sprintf("lab2 seed %d", seed)
			clog := filepath.Join(dir, fmt.Sprintf("sweep-%d.clog2", seed))
			outcome, evs, res := runLab2Chaos(t, name, spec, "d", clog)

			if crash {
				if outcome != "deadlock" {
					t.Fatalf("%s (%s): outcome %q, want a diagnosed deadlock", name, spec, outcome)
				}
			} else {
				if outcome != "clean" {
					t.Fatalf("%s (%s): outcome %q, want clean", name, spec, outcome)
				}
				if res == nil || res.Total != res.Expected {
					t.Fatalf("%s: wrong total under faults: %+v", name, res)
				}
				if len(evs) == 0 {
					t.Fatalf("%s: plan %q injected no faults", name, spec)
				}
			}

			// Replay: same plan, same seed, second world.
			outcome2, evs2, _ := runLab2Chaos(t, name+" (replay)", spec, "d", clog+".replay")
			if outcome2 != outcome {
				t.Fatalf("%s: replay outcome %q differs from original %q", name, outcome2, outcome)
			}
			a, b := evs, evs2
			if crash {
				a = crashedOnly(a, 2)
				b = crashedOnly(b, 2)
			}
			if sa, sb := faultStrings(a), faultStrings(b); !equalStrings(sa, sb) {
				t.Fatalf("%s: replay fault trace differs:\n  first: %v\n  replay: %v", name, sa, sb)
			}
		})
	}
}

// crashedOnly filters a fault trace down to one rank's events.
func crashedOnly(evs []mpi.FaultEvent, rank int) []mpi.FaultEvent {
	var out []mpi.FaultEvent
	for _, ev := range evs {
		if ev.Rank == rank {
			out = append(out, ev)
		}
	}
	return out
}

// mpeSignature reduces a CLOG-2 file to the per-rank record sequences
// that are deterministic under replay: record type, ids, aux fields,
// direction, cargo text, and definition name/colour — everything except
// wall-clock timestamps. Clock-sync TimeShift records are timing
// artefacts and are excluded entirely.
func mpeSignature(t *testing.T, path string) map[int32][]string {
	t.Helper()
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	sig := make(map[int32][]string)
	br, err := clog2.NewBlockReader(fh)
	if err == nil {
		err = br.Each(func(run clog2.Block) error {
			for _, r := range run.Records {
				if r.Type == clog2.RecTimeShift {
					continue
				}
				sig[run.Rank] = append(sig[run.Rank],
					fmt.Sprintf("%s|%d|%d|%d|%d|%d|%s|%s|%s",
						r.Type, r.ID, r.Aux1, r.Aux2, r.Aux3, r.Dir, r.Name, r.Color, r.CargoText()))
			}
			return nil
		})
	}
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	return sig
}

// TestChaosLab2ReplayMPE replays non-crash fault plans with MPE logging
// on and requires the identical per-rank MPE event sequence both times,
// and that the injected faults are visible as FaultInjected solo events
// in the converted SLOG-2 — the issue's timeline-visibility criterion.
func TestChaosLab2ReplayMPE(t *testing.T) {
	dir := t.TempDir()
	for i, seed := range []int{2, 4, 5} {
		seed := seed
		checkSlog := i == 0
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			spec, crash := lab2Spec(seed)
			if crash {
				t.Fatalf("seed %d is a crash seed; the MPE replay test needs full runs", seed)
			}
			name := fmt.Sprintf("lab2 mpe seed %d", seed)
			clogA := filepath.Join(dir, fmt.Sprintf("mpe-%d-a.clog2", seed))
			clogB := filepath.Join(dir, fmt.Sprintf("mpe-%d-b.clog2", seed))
			outcomeA, evsA, _ := runLab2Chaos(t, name, spec, "j", clogA)
			outcomeB, evsB, _ := runLab2Chaos(t, name+" (replay)", spec, "j", clogB)
			if outcomeA != "clean" || outcomeB != "clean" {
				t.Fatalf("%s: outcomes %q / %q, want clean", name, outcomeA, outcomeB)
			}
			if sa, sb := faultStrings(evsA), faultStrings(evsB); !equalStrings(sa, sb) {
				t.Fatalf("%s: replay fault trace differs:\n  first: %v\n  replay: %v", name, sa, sb)
			}

			sigA, sigB := mpeSignature(t, clogA), mpeSignature(t, clogB)
			if len(sigA) != len(sigB) {
				t.Fatalf("%s: replay logged %d ranks, original %d", name, len(sigB), len(sigA))
			}
			for rank, recs := range sigA {
				if !equalStrings(recs, sigB[rank]) {
					i := 0
					for i < len(recs) && i < len(sigB[rank]) && recs[i] == sigB[rank][i] {
						i++
					}
					a, b := "<missing>", "<missing>"
					if i < len(recs) {
						a = recs[i]
					}
					if i < len(sigB[rank]) {
						b = sigB[rank][i]
					}
					t.Fatalf("%s: rank %d MPE sequence diverges at record %d (of %d vs %d):\n  first: %s\n  replay: %s",
						name, rank, i, len(recs), len(sigB[rank]), a, b)
				}
			}

			if !checkSlog {
				return
			}
			f, _, err := vis.ConvertFile(clogA, vis.ConvertOptions{})
			if err != nil {
				t.Fatal(err)
			}
			cat := f.CategoryIndex("FaultInjected")
			if cat < 0 {
				t.Fatalf("%s: converted SLOG-2 has no FaultInjected category", name)
			}
			_, _, events := f.All()
			n := 0
			for _, e := range events {
				if e.Cat == cat {
					n++
				}
			}
			if n != len(evsA) {
				t.Fatalf("%s: converted SLOG-2 shows %d FaultInjected events, injected %d", name, n, len(evsA))
			}
		})
	}
}

// TestChaosThumbnail sweeps seeds over the thumbnail pipeline with the
// detector on. The pipeline routes work through AnyOf selects, so which
// rank performs which op when is schedule-dependent; the invariant under
// chaos is purely the diagnosed-termination one: crash seeds must end in
// an error (the detector names the stranded pipeline stages), fault-only
// seeds must still produce every thumbnail.
func TestChaosThumbnail(t *testing.T) {
	for seed := 100; seed < 106; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			crash := seed%2 == 0
			spec := fmt.Sprintf("seed=%d;delay:prob=0.1,dur=200us", seed)
			if crash {
				spec += fmt.Sprintf(";crash:rank=%d,op=%d", 1+seed%4, 3+seed%5)
			} else {
				spec += ";stall:rank=2,op=3,dur=2ms;rendezvous:prob=0.1"
			}
			plan, err := mpi.ParseFaultPlan(spec)
			if err != nil {
				t.Fatalf("bad spec %q: %v", spec, err)
			}
			cfg := thumbnail.Config{
				Workers: 3, NumImages: 12, ImageW: 64, ImageH: 48, Seed: 3,
				Core: core.Config{
					Services:      "d",
					CheckLevel:    3,
					DeadlockGrace: 250 * time.Millisecond,
					Stderr:        io.Discard,
					Faults:        plan,
				},
			}
			name := fmt.Sprintf("thumbnail seed %d", seed)
			var res *thumbnail.Result
			runErr := withDeadline(t, name, 90*time.Second, func() error {
				r, err := thumbnail.Run(cfg)
				res = r
				return err
			})
			if crash {
				if runErr == nil {
					t.Fatalf("%s (%s): crashed pipeline finished cleanly", name, spec)
				}
			} else {
				if runErr != nil {
					t.Fatalf("%s (%s): %v", name, spec, runErr)
				}
				if res.Thumbnails != cfg.NumImages {
					t.Fatalf("%s: produced %d thumbnails, want %d", name, res.Thumbnails, cfg.NumImages)
				}
			}
		})
	}
}

// TestChaosCollisions sweeps seeds over the collisions workload with the
// detector on: a crashed query worker strands PI_MAIN's all-writes /
// all-reads rounds and must surface as a diagnosed error, never a hang.
func TestChaosCollisions(t *testing.T) {
	for seed := 200; seed < 206; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			crash := seed%2 == 0
			spec := fmt.Sprintf("seed=%d;delay:prob=0.15,dur=200us;rendezvous:prob=0.15", seed)
			if crash {
				spec += fmt.Sprintf(";crash:rank=%d,op=%d", 1+seed%3, 2+seed%3)
			} else {
				spec += ";stall:rank=1,op=2,dur=2ms"
			}
			plan, err := mpi.ParseFaultPlan(spec)
			if err != nil {
				t.Fatalf("bad spec %q: %v", spec, err)
			}
			cfg := collisions.Config{Workers: 3, Rows: 1500, Seed: 3, QueryCost: 5}
			cfg.Core = core.Config{
				Services:      "d",
				CheckLevel:    3,
				DeadlockGrace: 250 * time.Millisecond,
				Stderr:        io.Discard,
				Faults:        plan,
			}
			name := fmt.Sprintf("collisions seed %d", seed)
			var res *collisions.Result
			runErr := withDeadline(t, name, 90*time.Second, func() error {
				r, err := collisions.RunFixed(cfg)
				res = r
				return err
			})
			if crash {
				if runErr == nil {
					t.Fatalf("%s (%s): crashed run finished cleanly", name, spec)
				}
			} else {
				if runErr != nil {
					t.Fatalf("%s (%s): %v", name, spec, runErr)
				}
				if len(res.Answers) == 0 {
					t.Fatalf("%s: no query answers", name)
				}
			}
		})
	}
}
