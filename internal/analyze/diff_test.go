package analyze

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clog2"
)

func TestDiffIdentical(t *testing.T) {
	b := newTB(t, 2).withReadWrite()
	b.state(0, 0, 0.01, 4, 5)
	b.msg(0, 0.1, clog2.DirSend, 1, 5, 8)
	b.msg(1, 0.2, clog2.DirRecv, 0, 5, 8)
	data := b.bytes()
	rep, err := DiffBytes(data, data, "a.clog2", "b.clog2", DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Identical || len(rep.Divergences) != 0 || rep.First != nil {
		t.Fatalf("self-diff not identical: %+v", rep)
	}
	if !strings.Contains(rep.Format(), "identical") {
		t.Fatalf("Format:\n%s", rep.Format())
	}
}

func TestDiffIgnoresTimestamps(t *testing.T) {
	// Same op sequence, shifted clocks: must diff clean.
	mk := func(shift float64) []byte {
		b := newTB(t, 2).withReadWrite()
		b.msg(0, 0.1+shift, clog2.DirSend, 1, 5, 8)
		b.state(1, shift, 0.01+shift, 2, 3)
		b.msg(1, 0.2+shift, clog2.DirRecv, 0, 5, 8)
		return b.bytes()
	}
	rep, err := DiffBytes(mk(0), mk(10.5), "a", "b", DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Identical {
		t.Fatalf("clock-shifted twin diverged: %+v", rep.Divergences)
	}
}

func TestDiffMismatch(t *testing.T) {
	mk := func(ch int32) []byte {
		b := newTB(t, 2).withReadWrite()
		b.msg(0, 0.1, clog2.DirSend, 1, 5, 8)
		b.msg(0, 0.2, clog2.DirSend, 1, ch, 8)
		b.msg(1, 0.3, clog2.DirRecv, 0, 5, 8)
		return b.bytes()
	}
	rep, err := DiffBytes(mk(6), mk(7), "clean.clog2", "faulted.clog2", DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Identical || rep.First == nil {
		t.Fatalf("mismatch not reported")
	}
	f := rep.First
	if f.Rank != 0 || f.Op != 1 || f.Kind != "mismatch" {
		t.Fatalf("first divergence %+v, want rank 0 op 1 mismatch", f)
	}
	if len(f.ContextA) == 0 || len(f.ContextB) == 0 {
		t.Fatalf("divergence carries no context: %+v", f)
	}
	if !strings.Contains(rep.Format(), "rank 0 op 1") {
		t.Fatalf("Format:\n%s", rep.Format())
	}
}

func TestDiffTruncation(t *testing.T) {
	mk := func(n int) []byte {
		b := newTB(t, 2).withReadWrite()
		for i := 0; i < n; i++ {
			b.msg(1, 0.1*float64(i), clog2.DirSend, 0, 5, 8)
		}
		b.state(0, 0, 0.01, 2, 3)
		return b.bytes()
	}
	rep, err := DiffBytes(mk(5), mk(3), "full", "truncated", DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Identical {
		t.Fatalf("truncation not detected")
	}
	f := rep.First
	if f.Rank != 1 || f.Op != 3 || f.Kind != "b-short" {
		t.Fatalf("first divergence %+v, want rank 1 op 3 b-short", f)
	}
	if f.LenA != 5 || f.LenB != 3 {
		t.Fatalf("lengths %d/%d, want 5/3", f.LenA, f.LenB)
	}
}

func TestDiffMissingRank(t *testing.T) {
	mk := func(withRank1 bool) []byte {
		b := newTB(t, 2).withReadWrite()
		b.state(0, 0, 0.01, 2, 3)
		if withRank1 {
			b.state(1, 0, 0.01, 4, 5)
		}
		return b.bytes()
	}
	rep, err := DiffBytes(mk(true), mk(false), "a", "b", DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Identical || rep.First.Kind != "b-missing-rank" || rep.First.Rank != 1 {
		t.Fatalf("missing rank not reported: %+v", rep.First)
	}
	// And symmetrically.
	rep, err = DiffBytes(mk(false), mk(true), "a", "b", DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Identical || rep.First.Kind != "a-missing-rank" {
		t.Fatalf("missing rank (mirrored) not reported: %+v", rep.First)
	}
}

func TestDiffFirstPicksEarliestOp(t *testing.T) {
	// Rank 2 diverges at op 0, rank 0 at op 1: First must be rank 2.
	mk := func(rank0, rank2 int32) []byte {
		b := newTB(t, 3).withReadWrite()
		b.bare(0, 0.1, 2).bare(0, 0.2, rank0)
		b.bare(2, 0.1, rank2)
		return b.bytes()
	}
	rep, err := DiffBytes(mk(3, 4), mk(5, 6), "a", "b", DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.First.Rank != 2 || rep.First.Op != 0 {
		t.Fatalf("First = %+v, want rank 2 op 0", rep.First)
	}
	if len(rep.Divergences) != 2 {
		t.Fatalf("divergences %d, want 2", len(rep.Divergences))
	}
}

func TestDiffFilesAndJSON(t *testing.T) {
	dir := t.TempDir()
	b := newTB(t, 2).withReadWrite()
	b.msg(0, 0.1, clog2.DirSend, 1, 5, 8)
	data := b.bytes()
	pa := filepath.Join(dir, "a.clog2")
	pb := filepath.Join(dir, "b.clog2")
	os.WriteFile(pa, data, 0o644)
	os.WriteFile(pb, data, 0o644)
	rep, err := DiffFiles(pa, pb, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Identical || rep.FileA != "a.clog2" || rep.FileB != "b.clog2" {
		t.Fatalf("DiffFiles report %+v", rep)
	}
	j, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(j), DiffSchema) {
		t.Fatalf("JSON missing schema:\n%s", j)
	}
}

func TestDiffCorruptInputErrors(t *testing.T) {
	good := newTB(t, 1).withReadWrite().bytes()
	if _, err := DiffBytes(good, []byte("garbage"), "a", "b", DiffOptions{}); err == nil {
		t.Fatalf("corrupt input accepted")
	}
	if _, err := DiffFiles("/nonexistent/a.clog2", "/nonexistent/b.clog2", DiffOptions{}); err == nil {
		t.Fatalf("missing files accepted")
	}
}
