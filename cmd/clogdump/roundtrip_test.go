package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/clog2"
	"repro/internal/mpe"
	"repro/internal/mpi"
	"repro/internal/slog2"
)

// verifyBlocks runs clogdump -verify on the log at path, requires it to
// pass with the table ok and numRanks ranks, and returns how many blocks it
// counted.
func verifyBlocks(t *testing.T, path string, numRanks int) int {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run([]string{"-verify", path}, &out, &errOut); code != 0 || !strings.HasPrefix(out.String(), "table: ok\n") {
		t.Fatalf("clogdump -verify %s: exit %d, stdout %q, stderr %q", filepath.Base(path), code, out.String(), errOut.String())
	}
	var ranks, blocks, records int
	if _, err := fmt.Sscanf(strings.Split(out.String(), "\n")[1], "ranks: %d, blocks: %d, records: %d", &ranks, &blocks, &records); err != nil || ranks != numRanks {
		t.Fatalf("clogdump -verify %s: %q: %d ranks, want %d (%v)", filepath.Base(path), out.String(), ranks, numRanks, err)
	}
	return blocks
}

// spilledWorld is an n-rank world on Manual clocks, spilling to prefix, in
// which rank r has logged pairs[r] states (the cargo says which rank and
// pair) and not wrapped up: its fragments are what an aborted run leaves.
func spilledWorld(t *testing.T, prefix string, pairs []int) (*mpi.World, *mpe.Group) {
	t.Helper()
	clocks := make([]*clock.Manual, len(pairs))
	srcs := make([]clock.Source, len(pairs))
	for r := range clocks {
		clocks[r] = clock.NewManual(100)
		srcs[r] = clocks[r]
	}
	w := mpi.NewWorld(len(pairs), mpi.Options{Clocks: srcs})
	g := mpe.NewGroup(w, true)
	g.EnableSpill(prefix)
	sid := g.DescribeState("PI_Write", "green")
	if err := g.SpillDefs(); err != nil {
		t.Fatal(err)
	}
	for r, n := range pairs {
		l := g.Logger(r)
		for i := 0; i < n; i++ {
			clocks[r].Advance(1e-4)
			l.StateStart(sid, fmt.Sprintf("rank %d pair %d", r, i))
			clocks[r].Advance(1e-4)
			l.StateEnd(sid, "")
		}
	}
	return w, g
}

// salvage merges the fragments under prefix into path and requires every
// rank with records to be recovered, and no warning.
func salvage(t *testing.T, prefix, path string, numRanks int) {
	t.Helper()
	var out bytes.Buffer
	rep, err := mpe.SalvageWithReport(prefix, &out)
	if err != nil || rep.NumRanks != numRanks || len(rep.Warnings) != 0 {
		t.Fatalf("salvage: %v, %d ranks, warnings %q", err, rep.NumRanks, rep.Warnings)
	}
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// A 300-rank log round-trips: rank 255 and every rank past it are blocks
// like any other (rank 255's header used to begin with the end-log byte, so
// that a 256-rank merge failed by name). The log Finish merges and the one
// salvage makes of the same world's fragments each carry the table a scan
// makes of them, convert with all 300 ranks and pass clogdump -verify.
func Test300RanksRoundTrip(t *testing.T) {
	const n = 300
	dir := t.TempDir()
	prefix := filepath.Join(dir, "run.clog2")
	pairs, states := make([]int, n), 0
	for r := range pairs {
		pairs[r] = 1 + r%3
		states += pairs[r]
	}
	w, g := spilledWorld(t, prefix, pairs)
	// A Finish that succeeds removes the fragments: salvage them first.
	salvaged, merged := filepath.Join(dir, "salvaged.clog2"), filepath.Join(dir, "merged.clog2")
	salvage(t, prefix, salvaged, n)
	var written *clog2.Table
	errs := w.Run(func(r *mpi.Rank) error {
		if r.ID() != 0 {
			return g.Logger(r.ID()).Finish(nil)
		}
		f, err := os.Create(merged)
		if err != nil {
			return err
		}
		if written, err = g.Logger(0).FinishIndexed(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	for _, path := range []string{merged, salvaged} {
		name := filepath.Base(path)
		carried, err := clog2.LoadTable(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		scanned, err := clog2.ScanTable(f)
		f.Close()
		if err != nil || !reflect.DeepEqual(scanned, carried) {
			t.Fatalf("%s: the scan's table (%v) is not the one the log carries", name, err)
		}
		if path == merged && !reflect.DeepEqual(written, carried) {
			t.Fatalf("%s: the table FinishIndexed returned is not the one it wrote", name)
		}
		seen := make([]bool, n)
		for _, b := range scanned.Blocks {
			seen[b.Rank] = true
		}
		for r, ok := range seen {
			if !ok {
				t.Fatalf("%s: no block of rank %d", name, r)
			}
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		conv, rep, err := slog2.ConvertReader(bytes.NewReader(data), slog2.ConvertOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if conv.NumRanks != n || rep.States != states {
			t.Fatalf("%s: converted to %d ranks and %d states, want %d and %d", name, conv.NumRanks, rep.States, n, states)
		}
		verifyBlocks(t, path, n)
	}
}

// Salvage cuts a rank into blocks as Finish does: a rank that logged 5 000
// records (more than a block holds) is written, the log passes
// clogdump -verify with more blocks than ranks, and a 1 % window through
// its table visits fewer blocks than a scan of its records.
func TestSalvageCutsARankIntoBlocks(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "run.clog2")
	spilledWorld(t, prefix, []int{2500, 10})
	path := filepath.Join(dir, "salvaged.clog2")
	salvage(t, prefix, path, 2)
	if blocks := verifyBlocks(t, path, 2); blocks <= 2 {
		t.Fatalf("%d blocks for 2 ranks", blocks)
	}
	table, err := clog2.LoadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	timed := 0
	for _, b := range table.Blocks {
		if b.Records > clog2.MaxBlockRecords {
			t.Fatalf("a block of %d records", b.Records)
		}
		if b.Records > b.Defs {
			timed++
		}
	}
	q := clog2.MatchAll()
	q.T0, q.T1 = 100.2, 100.2+0.01*0.5 // rank 0 logs for 0.5 s
	if sel := table.Select(q); len(sel) == 0 || len(sel) >= timed {
		t.Fatalf("a 1 %% window visits %d of the %d blocks that hold records", len(sel), timed)
	}
}

// With the defs spill and the highest rank's fragment both lost, that rank
// is named only as a peer: rank 1 of a three-rank world sent to rank 2.
// Salvage sizes the log's header to every rank its fragments and message
// halves name, so the log it writes passes clogdump -verify and converts,
// where a two-rank header would have its own reader refuse rank 1's send.
func TestSalvageCoversALostRanksPeer(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "run.clog2")
	_, g := spilledWorld(t, prefix, []int{3, 3, 3})
	g.Logger(1).LogSend(2, 7, 64)
	for _, lost := range []string{prefix + ".defs.spill", prefix + ".rank2.spill"} {
		if err := os.Remove(lost); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	rep, err := mpe.SalvageWithReport(prefix, &out)
	if err != nil || rep.NumRanks != 3 || rep.RanksRecovered != 2 || !rep.DefsSynthesized {
		t.Fatalf("salvage: %v, %d ranks, %d recovered, defs synthesized %v", err, rep.NumRanks, rep.RanksRecovered, rep.DefsSynthesized)
	}
	path := filepath.Join(dir, "salvaged.clog2")
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	verifyBlocks(t, path, 3)
	f, crep, err := slog2.ConvertReader(bytes.NewReader(out.Bytes()), slog2.ConvertOptions{})
	if err != nil || f.NumRanks != 3 || crep.States != 6 || crep.UnmatchedSends != 1 {
		t.Fatalf("converting the salvaged log: %v, report %+v", err, crep)
	}
}
