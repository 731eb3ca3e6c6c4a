package mpe

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/clog2"
	"repro/internal/mpi"
)

// runWorld drives a random logging load through an n-rank world and
// returns the merged CLOG-2 plus the table FinishIndexed says it wrote.
func runWorld(t *testing.T, n int, seed int64) ([]byte, *clog2.Table) {
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
	var table *clog2.Table
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
			table = got
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
	if table == nil {
		t.Fatal("rank 0 got no table")
	}
	return out.Bytes(), table
}

// checkTable holds a log to the table it ends with: the table validates,
// is what follows the end-log marker byte for byte, and equals what a scan
// of the log makes and, when want is not nil, the table its writer
// returned.
func checkTable(t *testing.T, name string, log []byte, want *clog2.Table) {
	t.Helper()
	got, err := clog2.ReadTable(bytes.NewReader(log), int64(len(log)))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	scanned, err := clog2.ScanTable(bytes.NewReader(log))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	enc := clog2.AppendTable(nil, got)
	if !bytes.Equal(log[got.LogSize():], enc) {
		t.Fatalf("%s: the table does not re-encode to the bytes it was read from", name)
	}
	if !bytes.Equal(enc, clog2.AppendTable(nil, scanned)) || got.NumRanks != scanned.NumRanks {
		t.Fatalf("%s: the table the log carries differs from a scan of it:\ncarried %+v\nscanned %+v", name, got, scanned)
	}
	if want != nil && (!bytes.Equal(enc, clog2.AppendTable(nil, want)) || want.NumRanks != got.NumRanks) {
		t.Fatalf("%s: the writer returned another table than it wrote:\nreturned %+v\nwritten  %+v", name, want, got)
	}
}

// The table the merge writes, built on the way from rank 0's own records
// and from the runs it checks of every other rank's, is the table a scan
// of the merged file makes, whatever the load.
func TestFinishIndexedMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		for _, n := range []int{1, 3, 5} {
			raw, table := runWorld(t, n, seed)
			checkTable(t, "merged log", raw, table)
			if table.TotalRecords == 0 {
				t.Fatalf("seed %d n %d: empty table", seed, n)
			}
		}
	}
}

// The goldens (two merged by Finish, one re-encoded by a Writer) and a log
// of many blocks, several to a rank and some empty, end with the table a
// scan makes of them.
func TestWrittenTablesEqualScans(t *testing.T) {
	for _, name := range []string{"lab2", "collisions", "thumbnail"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", name+".clog2"))
		if err != nil {
			t.Fatal(err)
		}
		checkTable(t, name, data, nil)
	}
	var out bytes.Buffer
	w, err := clog2.NewWriter(&out, 4)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 60; b++ {
		rank := int32(b % 4)
		recs := make([]clog2.Record, b%7*50)
		for i := range recs {
			recs[i] = clog2.Record{Type: clog2.RecBareEvt, Rank: rank, Time: float64(b) + float64(i)*1e-3, ID: int32(2 + i%2)}
			if i%5 == 0 {
				recs[i] = clog2.Record{Type: clog2.RecMsgEvt, Rank: rank, Time: recs[i].Time, Dir: clog2.DirSend, Aux1: (rank + 1) % 4, Aux2: int32(b % 9), Aux3: 8}
			}
		}
		if err := w.WriteBlock(rank, recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	checkTable(t, "60 blocks", out.Bytes(), w.Table())
	if n := len(w.Table().Blocks); n != 60 {
		t.Fatalf("the table holds %d entries for 60 blocks", n)
	}
}

// FinishFile writes the log and nothing beside it: the table is inside.
func TestFinishFileWritesTable(t *testing.T) {
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
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("the directory holds %d entries (%v), want the log alone", len(ents), err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, "FinishFile", data, nil)
	if table, _ := clog2.ReadTable(bytes.NewReader(data), int64(len(data))); table.NumRanks != 3 || len(table.Blocks) != 3 {
		t.Errorf("table = %d ranks, %d blocks", table.NumRanks, len(table.Blocks))
	}
}
