// The wire-fault chaos harness: real example programs (lab2, thumbnail,
// collisions) run over the multi-process socket transport while the
// seeded wire-fault injector abuses every link — delayed, corrupted,
// duplicated, dropped, torn and stalled frames. The contract under test
// is the transport's failure posture: every run must terminate within a
// deadline in one of exactly two states — transparent recovery with the
// same user-visible outcome as a clean run, or a diagnosed abort
// (FaultAbortCode) whose RobustLog salvage still yields a convertible
// log. Hangs and silent corruption are the only failures.
//
// Every decision the injector makes is a pure function of (seed, rules,
// link frame sequence), so a failing cell replays its exact fault
// schedule with -run 'TestChaosWireSweep/<cell>'.
package repro_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/collisions"
	"repro/internal/core"
	"repro/internal/lab2"
	"repro/internal/mpi"
	"repro/internal/thumbnail"
	"repro/vis"
)

const (
	chaosWireProgramEnv = "PILOT_CHAOSWIRE_PROGRAM"
	chaosWireFaultsEnv  = "PILOT_CHAOSWIRE_FAULTS"
	chaosWirePrefixEnv  = "PILOT_CHAOSWIRE_PREFIX"
)

// chaosWireCore builds the Pilot config shared by the rank-0 parent and
// every spawned rank: socket transport, RobustLog (so a diagnosed abort
// still salvages a log), and the identical fault plan — each process
// derives its own injection decisions from the same seed and rules.
func chaosWireCore(program, prefix, faults string) (core.Config, error) {
	plan, err := mpi.ParseFaultPlan(faults)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Services:     string(core.SvcJumpshot),
		RobustLog:    true,
		JumpshotPath: prefix,
		Transport:    mpi.TransportSocket,
		Faults:       plan,
		SpawnCommand: []string{os.Args[0], "-test.run=^TestChaosWireChild$"},
		SpawnEnv: []string{
			chaosWireProgramEnv + "=" + program,
			chaosWireFaultsEnv + "=" + faults,
			chaosWirePrefixEnv + "=" + prefix,
		},
	}, nil
}

// chaosWireRun executes one program over the faulted wire and returns
// the program error plus a program-specific outcome check (run only on
// success, against a clean-run expectation).
func chaosWireRun(program, prefix, faults string) (err error, check func() error) {
	cc, err := chaosWireCore(program, prefix, faults)
	if err != nil {
		return err, nil
	}
	switch program {
	case "lab2":
		res, err := lab2.Run(lab2.Config{W: 2, NUM: 1500, Seed: 42, Core: cc})
		return err, func() error {
			if res.Total != res.Expected {
				return fmt.Errorf("lab2 total %d != expected %d", res.Total, res.Expected)
			}
			return nil
		}
	case "thumbnail":
		res, err := thumbnail.Run(thumbnail.Config{
			Workers: 1, NumImages: 6, ImageW: 64, ImageH: 48, Seed: 1, Core: cc,
		})
		return err, func() error {
			if res.Thumbnails != 6 {
				return fmt.Errorf("thumbnail produced %d/6 images", res.Thumbnails)
			}
			return nil
		}
	case "collisions":
		res, err := collisions.RunFixed(collisions.Config{Workers: 2, Rows: 300, Seed: 7, Core: cc})
		return err, func() error {
			want := cleanCollisionsAnswers()
			if !reflect.DeepEqual(res.Answers, want) {
				return fmt.Errorf("collisions answers diverged from the clean run:\ngot  %v\nwant %v", res.Answers, want)
			}
			return nil
		}
	default:
		return fmt.Errorf("unknown chaos-wire program %q", program), nil
	}
}

// cleanCollisionsAnswers computes the fault-free in-process reference
// outcome once; recovered wire runs must reproduce it exactly.
var cleanCollisionsAnswers = sync.OnceValue(func() []collisions.QueryResult {
	res, err := collisions.RunFixed(collisions.Config{Workers: 2, Rows: 300, Seed: 7})
	if err != nil {
		panic(fmt.Sprintf("clean collisions reference run failed: %v", err))
	}
	return res.Answers
})

// TestChaosWireChild hosts one spawned rank of whichever program the
// sweep is running. Inert under a normal `go test`.
func TestChaosWireChild(t *testing.T) {
	if !mpi.Spawned() {
		t.Skip("spawned rank body; run via TestChaosWireSweep")
	}
	err, _ := chaosWireRun(os.Getenv(chaosWireProgramEnv),
		os.Getenv(chaosWirePrefixEnv), os.Getenv(chaosWireFaultsEnv))
	// A successful spawned rank exits inside PI_StartAll; reaching here
	// means the world tore down (diagnosed abort) or setup failed.
	t.Fatalf("spawned chaos-wire rank returned: %v", err)
}

// chaosWireOnce runs one (program, fault-kind, seed) cell and asserts
// the failure posture.
func chaosWireOnce(t *testing.T, program, faults string) {
	t.Helper()
	prefix := filepath.Join(t.TempDir(), "chaoswire.clog2")
	defer assertNoSidecar(t, filepath.Dir(prefix))

	type outcome struct {
		err   error
		check func() error
	}
	done := make(chan outcome, 1)
	go func() {
		err, check := chaosWireRun(program, prefix, faults)
		done <- outcome{err, check}
	}()
	var got outcome
	select {
	case got = <-done:
	case <-time.After(120 * time.Second):
		t.Fatalf("%s under %q did not terminate in 120s: that is a hang, the one forbidden outcome", program, faults)
	}

	if got.err != nil {
		// The diagnosed-abort bucket: the error must name the abort code,
		// and the salvage must still have produced a convertible log.
		want := fmt.Sprintf("aborted with code %d", mpi.FaultAbortCode)
		if !strings.Contains(got.err.Error(), want) {
			t.Fatalf("%s under %q failed undiagnosed: %v (want %q)", program, faults, got.err, want)
		}
		// When the abort landed late enough for salvage to run, the log it
		// left must convert; an abort before any logging leaves no file.
		if _, statErr := os.Stat(prefix); statErr == nil {
			if _, _, err := vis.ConvertFile(prefix, vis.ConvertOptions{}); err != nil {
				t.Fatalf("%s under %q: salvaged log does not convert: %v", program, faults, err)
			}
		}
		return
	}
	// The transparent-recovery bucket: same outcome as a clean run, and
	// the merged log converts.
	if err := got.check(); err != nil {
		t.Fatalf("%s under %q recovered but corrupted the outcome: %v", program, faults, err)
	}
	if _, _, err := vis.ConvertFile(prefix, vis.ConvertOptions{}); err != nil {
		t.Fatalf("%s under %q: merged log does not convert: %v", program, faults, err)
	}
}

// TestChaosWireSweep is the seeded sweep: each program crossed with each
// wire-fault kind, sequentially (each cell spawns its own rank
// processes; the CI box is single-core). Cell names replay with -run.
func TestChaosWireSweep(t *testing.T) {
	if mpi.Spawned() {
		t.Skip("spawned rank")
	}
	if testing.Short() {
		t.Skip("spawns rank processes; skipped in -short")
	}
	kinds := []struct{ name, rule string }{
		{"wiredelay", "wiredelay:rank=*,prob=0.1,dur=5ms"},
		{"wirecorrupt", "wirecorrupt:rank=*,prob=0.05"},
		{"wiredup", "wiredup:rank=*,prob=0.1"},
		{"wiredrop", "wiredrop:rank=*,prob=0.04"},
		{"wirereset", "wirereset:rank=*,prob=0.04"},
		{"wirestall", "wirestall:rank=*,prob=0.05,dur=10ms"},
	}
	seed := 100
	for _, program := range []string{"lab2", "thumbnail", "collisions"} {
		for _, k := range kinds {
			seed++
			spec := fmt.Sprintf("seed=%d;%s", seed, k.rule)
			t.Run(fmt.Sprintf("%s/%s/seed=%d", program, k.name, seed), func(t *testing.T) {
				chaosWireOnce(t, program, spec)
			})
		}
	}
	// Saturation: corrupt every first transmission. Nothing gets through
	// except retransmits (which are never re-faulted), so completing at
	// all proves the CRC-detect → fail → resume → retransmit loop makes
	// forward progress under total wire hostility.
	t.Run("lab2/saturate-corrupt/seed=999", func(t *testing.T) {
		chaosWireOnce(t, "lab2", "seed=999;wirecorrupt:rank=*,prob=1")
	})
}

// TestChaosWireReplay runs one faulted cell twice with the same seed:
// determinism means the second run must land in the same bucket with the
// same outcome — the property that makes a failing seed debuggable.
func TestChaosWireReplay(t *testing.T) {
	if mpi.Spawned() {
		t.Skip("spawned rank")
	}
	if testing.Short() {
		t.Skip("spawns rank processes; skipped in -short")
	}
	const spec = "seed=4242;wiredrop:rank=*,prob=0.04;wiredup:rank=*,prob=0.1"
	run := func() (error, int) {
		prefix := filepath.Join(t.TempDir(), "replay.clog2")
		cc, err := chaosWireCore("lab2", prefix, spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := lab2.Run(lab2.Config{W: 2, NUM: 1500, Seed: 42, Core: cc})
		if err != nil {
			return err, 0
		}
		return nil, res.Total
	}
	err1, total1 := run()
	err2, total2 := run()
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("replay changed buckets: %v vs %v", err1, err2)
	}
	if err1 == nil && total1 != total2 {
		t.Fatalf("replay changed the outcome: total %d vs %d", total1, total2)
	}
}
