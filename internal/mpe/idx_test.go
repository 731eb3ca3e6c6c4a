package mpe

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/idx"
	"repro/internal/mpi"
)

// runWorld drives a random logging load through an n-rank world and
// returns the merged CLOG-2 plus the index the merge emitted inline.
func runWorld(t *testing.T, n int, seed int64) ([]byte, *idx.Index) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := mpi.NewWorld(n, mpi.Options{})
	g := NewGroup(w, true)
	sids := []StateID{
		g.DescribeState("A", "red"),
		g.DescribeState("B", "green"),
	}
	eid := g.DescribeEvent("E", "yellow")
	loads := make([]int, n)
	for r := range loads {
		loads[r] = rng.Intn(40)
	}
	var out bytes.Buffer
	var ix *idx.Index
	errs := w.Run(func(r *mpi.Rank) error {
		l := g.Logger(r.ID())
		for i := 0; i < loads[r.ID()]; i++ {
			sid := sids[i%len(sids)]
			l.StateStart(sid, "x")
			l.StateEnd(sid, "")
			if i%4 == 0 {
				l.Event(eid, "e")
			}
			if i%3 == 0 { // messages, so the channel fences are compared too
				l.LogSend((r.ID()+1)%n, 10+i%5, 8*i)
				l.LogRecv((r.ID()+n-1)%n, 10+i%7, 8*i)
			}
		}
		if r.ID() == 0 {
			got, err := l.FinishIndexed(&out)
			ix = got
			return err
		}
		_, err := l.FinishIndexed(nil)
		return err
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	if ix == nil {
		t.Fatal("rank 0 got no inline index")
	}
	return out.Bytes(), ix
}

// The inline index the merge emits must byte-match a from-scratch
// full-scan rebuild of the merged file — the two producers may never
// diverge, whatever the load.
func TestFinishIndexedMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		for _, n := range []int{1, 3, 5} {
			raw, inline := runWorld(t, n, seed)
			path := filepath.Join(t.TempDir(), "merge.clog2")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			rebuilt, err := idx.BuildFile(path)
			if err != nil {
				t.Fatalf("seed %d n %d: %v", seed, n, err)
			}
			if !bytes.Equal(idx.Encode(inline), idx.Encode(rebuilt)) {
				t.Fatalf("seed %d n %d: inline index differs from rebuild:\ninline  %+v\nrebuilt %+v",
					seed, n, inline, rebuilt)
			}
			if inline.TotalRecords == 0 {
				t.Fatalf("seed %d n %d: empty index", seed, n)
			}
		}
	}
}

// FinishFile must leave a valid, loadable sidecar beside the log.
func TestFinishFileWritesSidecar(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.clog2")
	w := mpi.NewWorld(3, mpi.Options{})
	g := NewGroup(w, true)
	sid := g.DescribeState("A", "red")
	errs := w.Run(func(r *mpi.Rank) error {
		l := g.Logger(r.ID())
		l.StateStart(sid, "")
		l.StateEnd(sid, "")
		if r.ID() == 0 {
			return l.FinishFile(path)
		}
		return l.FinishFile("ignored-on-nonzero-ranks")
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	ix, err := idx.Load(path)
	if err != nil {
		t.Fatalf("merge did not leave a valid sidecar: %v", err)
	}
	if ix.NumRanks != 3 || len(ix.Blocks) == 0 {
		t.Errorf("sidecar = %d ranks, %d blocks", ix.NumRanks, len(ix.Blocks))
	}
	if got := idx.Probe(path); got != idx.StatusOK {
		t.Errorf("Probe = %v, want ok", got)
	}
}
