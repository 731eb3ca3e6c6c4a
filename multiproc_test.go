// Multi-process transport tests at the Pilot level: the same programs the
// in-process suite runs, with every rank spawned as its own OS process
// over the socket transport. The children are this test binary re-invoked
// on a child test function; each child joins the world through the
// PILOT_MPI_* environment, runs its one rank inside PI_StartAll, and
// exits. Code after PI_StartAll only ever executes in the rank-0 parent,
// exactly as with a real mpirun.
package repro_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/clog2"
	"repro/internal/core"
	"repro/internal/lab2"
	"repro/internal/mpi"
	"repro/internal/slog2"
	"repro/vis"
)

const multiprocPrefixEnv = "PILOT_MULTIPROC_PREFIX"

// lab2SocketConfig is the one lab2 configuration both halves of the
// end-to-end test build, so the spawned ranks wire up the identical
// program the parent orchestrates.
func lab2SocketConfig(prefix string) lab2.Config {
	return lab2.Config{
		W:    3,
		NUM:  3000,
		Seed: 42,
		Core: core.Config{
			Services:     string(core.SvcJumpshot),
			JumpshotPath: prefix,
			Transport:    mpi.TransportSocket,
			SpawnCommand: []string{os.Args[0], "-test.run=^TestMultiprocLab2Child$"},
			SpawnEnv:     []string{multiprocPrefixEnv + "=" + prefix},
		},
	}
}

// TestMultiprocLab2Child hosts one spawned lab2 rank. Inert under a
// normal `go test`; when launched with the join environment it enters
// lab2.Run, which exits the process from inside PI_StartAll.
func TestMultiprocLab2Child(t *testing.T) {
	if !mpi.Spawned() {
		t.Skip("spawned rank body; run via TestMultiprocLab2Socket")
	}
	_, err := lab2.Run(lab2SocketConfig(os.Getenv(multiprocPrefixEnv)))
	// Only reachable if the join or configuration failed — a successful
	// rank never returns from PI_StartAll.
	t.Fatalf("spawned lab2 rank returned: %v", err)
}

// TestMultiprocLab2Socket runs the paper's lab2 exercise with its workers
// as separate OS processes and checks the full pipeline end to end: the
// grand total is right, the MPE merge collected every rank's CLOG-2
// stream over the wire, and the merged log converts to a writable SLOG-2.
func TestMultiprocLab2Socket(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns rank processes; skipped in -short")
	}
	prefix := filepath.Join(t.TempDir(), "lab2.clog2")
	cfg := lab2SocketConfig(prefix)
	res, err := lab2.Run(cfg)
	if err != nil {
		t.Fatalf("lab2 over sockets: %v", err)
	}
	if res.Total != res.Expected {
		t.Fatalf("grand total %d != expected %d", res.Total, res.Expected)
	}
	if len(res.Subtotals) != cfg.W {
		t.Fatalf("got %d subtotals, want %d", len(res.Subtotals), cfg.W)
	}

	f, err := os.Open(prefix)
	if err != nil {
		t.Fatalf("merged CLOG-2 missing: %v", err)
	}
	table, err := clog2.ScanTable(f)
	f.Close()
	if err != nil {
		t.Fatalf("merged CLOG-2 does not parse: %v", err)
	}
	// Every rank's stream crossed the wire into the merge.
	ranksSeen := map[int32]bool{}
	for _, b := range table.Blocks {
		if b.Records > 0 {
			ranksSeen[b.Rank] = true
		}
	}
	for rank := 0; rank <= cfg.W; rank++ {
		if !ranksSeen[int32(rank)] {
			t.Errorf("merged log has no records from rank %d", rank)
		}
	}

	sf, _, err := vis.ConvertFile(prefix, vis.ConvertOptions{})
	if err != nil {
		t.Fatalf("merged log does not convert: %v", err)
	}
	var out bytes.Buffer
	if err := slog2.Write(&out, sf); err != nil {
		t.Fatalf("converted SLOG-2 does not serialize: %v", err)
	}
	if out.Len() == 0 {
		t.Fatal("empty SLOG-2")
	}
}

const chaosRankWorkers = 2

// multiprocChaosProgram is a deliberately long-running master/worker
// program under RobustLog: each worker streams row numbers to PI_MAIN
// forever, so the parent can kill one worker's process mid-flight.
// afterStart runs only in the rank-0 parent, once the runtime handle can
// hand out child PIDs. It returns PI_StopMain's verdict.
func multiprocChaosProgram(prefix string, afterStart func(r *core.Runtime)) error {
	cfg := core.Config{
		NumProcs:     chaosRankWorkers + 1,
		Services:     string(core.SvcJumpshot),
		RobustLog:    true,
		JumpshotPath: prefix,
		Transport:    mpi.TransportSocket,
		SpawnCommand: []string{os.Args[0], "-test.run=^TestMultiprocChaosChild$"},
		SpawnEnv:     []string{multiprocPrefixEnv + "=" + prefix},
	}
	r, err := core.NewRuntime(cfg)
	if err != nil {
		return err
	}
	results := make([]*core.Channel, chaosRankWorkers)
	worker := func(self *core.Self, index int, arg any) int {
		for i := 0; ; i++ {
			if err := results[index].Write("%d", i); err != nil {
				return 1
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	for i := 0; i < chaosRankWorkers; i++ {
		p, err := r.CreateProcess(worker, i, nil)
		if err != nil {
			return err
		}
		if results[i], err = r.CreateChannel(p, r.MainProc()); err != nil {
			return err
		}
	}
	if _, err := r.StartAll(); err != nil {
		return err
	}
	// Parent only from here on: spawned ranks exited inside StartAll.
	if afterStart != nil {
		afterStart(r)
	}
	for i := 0; ; i++ {
		var v int
		if err := results[i%chaosRankWorkers].Read("%d", &v); err != nil {
			break // the kill landed; StopMain explains
		}
	}
	return r.StopMain(0)
}

// TestMultiprocChaosChild hosts one spawned chaos worker rank.
func TestMultiprocChaosChild(t *testing.T) {
	if !mpi.Spawned() {
		t.Skip("spawned rank body; run via TestMultiprocKillRankSalvage")
	}
	err := multiprocChaosProgram(os.Getenv(multiprocPrefixEnv), nil)
	t.Fatalf("spawned chaos rank returned: %v", err)
}

// TestMultiprocKillRankSalvage SIGKILLs one worker's OS process mid-run.
// The hub must diagnose the vanished rank as a crash (FaultAbortCode) and
// tear the world down, and the RobustLog salvage must still produce a
// convertible CLOG-2 containing the dead rank's spilled records.
func TestMultiprocKillRankSalvage(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns rank processes; skipped in -short")
	}
	dir := t.TempDir()
	prefix := filepath.Join(dir, "chaos.clog2")
	const victim = 1

	err := multiprocChaosProgram(prefix, func(r *core.Runtime) {
		pid := r.World().ChildPID(victim)
		if pid <= 0 {
			t.Errorf("ChildPID(%d) = %d, want a live process", victim, pid)
			r.World().Rank(0).Abort(mpi.FaultAbortCode)
			return
		}
		go func() {
			// Let the victim spill real records first, then kill it cold.
			deadline := time.Now().Add(60 * time.Second)
			for victimSpillBytes(prefix, victim) < 600 {
				if time.Now().After(deadline) {
					break
				}
				time.Sleep(time.Millisecond)
			}
			if p, err := os.FindProcess(pid); err == nil {
				p.Kill()
			}
		}()
	})
	if err == nil {
		t.Fatal("StopMain returned nil after a rank was killed")
	}
	want := fmt.Sprintf("aborted with code %d", mpi.FaultAbortCode)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("StopMain diagnosis %q does not contain %q", err, want)
	}

	// The salvage replaced the lost merge: the log parses, converts, and
	// still carries the dead rank's records.
	f, err := os.Open(prefix)
	if err != nil {
		t.Fatalf("salvaged CLOG-2 missing: %v", err)
	}
	table, err := clog2.ScanTable(f)
	f.Close()
	if table == nil {
		t.Fatalf("salvaged CLOG-2 does not parse: %v", err)
	}
	victimRecs := 0
	for _, b := range table.Blocks {
		if b.Rank == victim {
			victimRecs += int(b.Records)
		}
	}
	if victimRecs == 0 {
		t.Fatal("salvage recovered no records from the killed rank")
	}
	if _, _, err := vis.ConvertFile(prefix, vis.ConvertOptions{}); err != nil {
		t.Fatalf("salvaged log does not convert: %v", err)
	}
}

// victimSpillBytes returns the on-disk size of one rank's spill fragment.
func victimSpillBytes(prefix string, rank int) int64 {
	fi, err := os.Stat(fmt.Sprintf("%s.rank%d.spill", prefix, rank))
	if err != nil {
		return 0
	}
	return fi.Size()
}
