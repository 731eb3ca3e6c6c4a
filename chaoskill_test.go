// The kill/corrupt chaos harness for the v2 spill format: a real example
// program runs under RobustLog in a subprocess, is SIGKILLed at a seeded
// point mid-run, its spill fragments are (optionally, seeded) further
// damaged — bytes flipped, tails truncated, the defs table deleted — and
// the salvage pipeline must still produce a CLOG-2 that converts to a
// valid SLOG-2, with a report whose segment accounting closes exactly.
// Every seed is independent and replayable: the corruption is a pure
// function of the seed, and the assertions are invariants that hold for
// any kill point.
package repro_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/collisions"
	"repro/internal/core"
	"repro/internal/mpe"
	"repro/internal/slog2"
	"repro/vis"
)

const (
	chaosChildEnv  = "PILOT_CHAOS_CHILD"
	chaosPrefixEnv = "PILOT_CHAOS_PREFIX"
)

// TestChaosKillChildProcess is the subprocess body, inert unless the
// harness env vars are set. It loops the collisions example under
// RobustLog forever; the parent SIGKILLs it mid-run. The per-row sleep
// stretches each iteration so the kill lands inside the logging steady
// state, not the setup.
func TestChaosKillChildProcess(t *testing.T) {
	if os.Getenv(chaosChildEnv) != "1" {
		t.Skip("chaos child body; run via TestChaosKillSalvage")
	}
	prefix := os.Getenv(chaosPrefixEnv)
	for {
		_, _ = collisions.RunFixed(collisions.Config{
			Workers:          3,
			Rows:             600,
			ReadSleepPerRow:  200 * time.Microsecond,
			QuerySleepPerRow: 50 * time.Microsecond,
			Core: core.Config{
				Services:     string(core.SvcJumpshot),
				RobustLog:    true,
				JumpshotPath: prefix,
			},
		})
	}
}

// spillBytes totals the on-disk size of every rank fragment.
func spillBytes(prefix string) int64 {
	var total int64
	for _, frag := range mpe.FindSpillFragments(prefix) {
		if fi, err := os.Stat(frag.Path); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// corruptSpills applies seeded damage to the fragments a kill left
// behind: per fragment, maybe flip a few bytes or truncate the tail;
// maybe delete or scribble over the defs table. Everything is driven by
// rng, so a seed replays its exact damage.
func corruptSpills(t *testing.T, prefix string, rng *rand.Rand) (flips, truncs int, defsGone bool) {
	t.Helper()
	for _, frag := range mpe.FindSpillFragments(prefix) {
		data, err := os.ReadFile(frag.Path)
		if err != nil || len(data) == 0 {
			continue
		}
		switch {
		case rng.Intn(100) < 40: // flip 1..3 bytes
			n := 1 + rng.Intn(3)
			for i := 0; i < n; i++ {
				data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
			}
			flips += n
		case rng.Intn(100) < 30: // tear the tail off
			data = data[:rng.Intn(len(data))]
			truncs++
		}
		if err := os.WriteFile(frag.Path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	switch defs := prefix + ".defs.spill"; rng.Intn(100) {
	case 0, 1, 2, 3, 4, 5, 6, 7, 8, 9: // delete outright
		os.Remove(defs)
		defsGone = true
	case 10, 11, 12, 13, 14: // scribble over
		if err := os.WriteFile(defs, []byte("defs table roadkill"), 0o644); err != nil {
			t.Fatal(err)
		}
		defsGone = true
	}
	return flips, truncs, defsGone
}

// chaosKillOnce runs one seed: spawn, kill at a seeded spill size,
// corrupt, salvage, convert, and check the invariants.
func chaosKillOnce(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	defer assertNoSidecar(t, dir)
	prefix := filepath.Join(dir, "chaos.clog2")

	cmd := exec.Command(os.Args[0], "-test.run=^TestChaosKillChildProcess$")
	cmd.Env = append(os.Environ(), chaosChildEnv+"=1", chaosPrefixEnv+"="+prefix)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Kill once the fragments pass a seeded size — far enough in that
	// segments exist, early enough that the run is mid-flight. The extra
	// microsleep jitters the kill across segment boundaries and mid-write
	// points.
	threshold := int64(800 + rng.Intn(4000))
	deadline := time.Now().Add(60 * time.Second)
	for spillBytes(prefix) < threshold {
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: child produced %d spill bytes in 60s, want %d",
				seed, spillBytes(prefix), threshold)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(time.Duration(rng.Intn(3000)) * time.Microsecond)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	flips, truncs, defsGone := corruptSpills(t, prefix, rng)

	var out bytes.Buffer
	rep, err := mpe.SalvageWithReport(prefix, &out)
	if err != nil {
		t.Fatalf("seed %d (flips=%d truncs=%d defsGone=%v): salvage errored: %v",
			seed, flips, truncs, defsGone, err)
	}

	// The report's segment accounting must close for every rank:
	// recovered + skipped + missing == written.
	var recovered int
	for _, r := range rep.Ranks {
		if int64(r.SegmentsRecovered+r.SegmentsSkipped+r.SegmentsMissing) != r.SegmentsWritten {
			t.Fatalf("seed %d: rank %d accounting open: %+v\n%s", seed, r.Rank, r, rep)
		}
		recovered += r.SegmentsRecovered
	}
	if recovered == 0 {
		t.Fatalf("seed %d: no segments recovered from %d fragments past %d bytes\n%s",
			seed, len(rep.Ranks), threshold, rep)
	}
	if defsGone && !rep.DefsSynthesized {
		// Damaging the defs table may still leave its one segment intact
		// (truncation past it), but outright deletion/scribbling may not.
		t.Fatalf("seed %d: defs destroyed yet not synthesized\n%s", seed, rep)
	}

	// The salvaged CLOG-2 must parse and convert to a writable SLOG-2 —
	// the end of the paper's pipeline.
	salvaged := filepath.Join(dir, "salvaged.clog2")
	if err := os.WriteFile(salvaged, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	sf, _, err := vis.ConvertFile(salvaged, vis.ConvertOptions{})
	if err != nil {
		t.Fatalf("seed %d: salvaged log does not convert: %v\n%s", seed, err, rep)
	}
	var slogOut bytes.Buffer
	if err := slog2.Write(&slogOut, sf); err != nil {
		t.Fatalf("seed %d: converted SLOG-2 does not serialize: %v", seed, err)
	}
	if slogOut.Len() == 0 {
		t.Fatalf("seed %d: empty SLOG-2", seed)
	}
}

// TestChaosKillSalvage sweeps the seeds. Each seed is a subtest so a
// failure names its seed for replay with -run.
func TestChaosKillSalvage(t *testing.T) {
	if os.Getenv(chaosChildEnv) == "1" {
		t.Skip("child process")
	}
	if testing.Short() {
		t.Skip("subprocess chaos sweep; skipped in -short")
	}
	const seeds = 24
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			chaosKillOnce(t, seed)
		})
	}
}
