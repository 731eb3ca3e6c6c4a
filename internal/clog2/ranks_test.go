package clog2

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
)

// visitFunc is a RankVisitor made of a function.
type visitFunc func(Block) error

func (f visitFunc) Visit(b Block) error { return f(b) }

// rankRecords gathers what a per-rank walk hands one rank's visitor.
type rankRecords struct {
	rank int32
	recs []Record
}

func (r *rankRecords) Visit(b Block) error {
	if b.Rank != r.rank {
		return fmt.Errorf("a block of rank %d handed to rank %d's visitor", b.Rank, r.rank)
	}
	r.recs = append(r.recs, b.Records...)
	return nil
}

// rankWalk is what a per-rank walk handed over: the definitions, and the
// records of each rank that got one, in rank order.
type rankWalk struct {
	defs  []Record
	ranks []int32
	recs  [][]Record
}

// tabled is the log data holds, read through its block table.
func tabled(data []byte) Input {
	return TableInput(Source{R: bytes.NewReader(data), Size: int64(len(data))})
}

// walkRanks walks the log in holds with EachRank and says what it handed
// over, whether the table selected the blocks, and how often it began.
func walkRanks(in Input, q Query, workers int) (w rankWalk, used bool, begins int, err error) {
	visitors, used, err := EachRank(in, q, workers, func(_ int, defs []Record) func(int32) *rankRecords {
		begins++
		w.defs = slices.Clone(defs)
		return func(rank int32) *rankRecords { return &rankRecords{rank: rank} }
	})
	for i, v := range visitors {
		if i > 0 && v.rank <= visitors[i-1].rank {
			err = fmt.Errorf("visitors of ranks %d then %d", visitors[i-1].rank, v.rank)
		}
		if len(v.recs) > 0 {
			w.ranks, w.recs = append(w.ranks, v.rank), append(w.recs, v.recs)
		}
	}
	return w, used, begins, err
}

// scanRanks is what a per-rank walk of the log data holds must hand over,
// from one pass in file order: every definition, and each rank's records q
// selects, in file order.
func scanRanks(t *testing.T, data []byte, q Query) rankWalk {
	t.Helper()
	_, blocks, err := readBlocks(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var w rankWalk
	byRank := map[int32][]Record{}
	for _, b := range blocks {
		for _, r := range b.Records {
			switch {
			case r.Type.IsDef():
				w.defs = append(w.defs, r)
			case selects(q, &r):
				byRank[r.Rank] = append(byRank[r.Rank], r)
			}
		}
	}
	for rank := range byRank {
		w.ranks = append(w.ranks, rank)
	}
	slices.Sort(w.ranks)
	for _, rank := range w.ranks {
		w.recs = append(w.recs, byRank[rank])
	}
	return w
}

// EachRank hands each rank exactly what a scan in file order gives it, and
// the definitions before any of it, at 1, 2 and 8 workers, whether the log
// is read through its table, through the table its scan makes (it has
// none), or as a stream; for the whole log, windows, and one rank.
func TestEachRankIsTheScanRankByRank(t *testing.T) {
	logs := map[string][]byte{
		"big":       bigLog(t, 60_000, 7),
		"four":      readFile(t, writeLog(t)),
		"thumbnail": goldenThumbnail(t),
	}
	for name, data := range logs {
		table, err := ReadTable(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bare := data[:table.LogSize()]
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, m := range table.Blocks {
			if m.Records > m.Defs {
				lo, hi = min(lo, m.TMin), max(hi, m.TMax)
			}
		}
		queries := map[string]Query{"everything": MatchAll()}
		for _, span := range [][2]float64{{0.1, 0.2}, {0.45, 0.46}, {0, 0.01}, {0.99, 1}} {
			q := MatchAll()
			q.T0, q.T1 = lo+span[0]*(hi-lo), lo+span[1]*(hi-lo)
			queries[fmt.Sprint("window ", span)] = q
		}
		one := MatchAll()
		one.Rank = table.Blocks[len(table.Blocks)-1].Rank
		queries["one rank"] = one
		for qname, q := range queries {
			want := scanRanks(t, data, q)
			for _, workers := range []int{1, 2, 8} {
				for _, how := range []struct {
					name string
					in   Input
					used bool
				}{
					{"through its table", tabled(data), true},
					{"through its scan's table", tabled(bare), false},
					{"as a stream", StreamInput(bytes.NewReader(data)), false},
				} {
					got, used, begins, err := walkRanks(how.in, q, workers)
					if err != nil || used != how.used || begins != 1 {
						t.Fatalf("%s, %s, %d workers, %s: %v, table used %v, began %d times", name, qname, workers, how.name, err, used, begins)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s, %s, %d workers, %s: the walk differs from the scan", name, qname, workers, how.name)
					}
				}
			}
		}
	}
}

// A table that validates and then lies about one rank's block mid-walk
// sends every rank back to ScanTable's table: the walk begins again and
// its answer is the scan's. A lie about a block's definitions is found
// too: the walk decodes them from the entries that count them, and checks
// every block it reads against its count. A table whose entries show a
// definition after a timed record is not used at all: the walk reads the
// log through its scan from the start, which accepts it when the table
// lied.
func TestEachRankDegradesWhenTheTableLies(t *testing.T) {
	data := bigLog(t, 60_000, 11)
	table, err := ReadTable(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	// The last block of rank 5, which the walk reads after others, the
	// last block that holds definitions, and the last of rank 0.
	mid, defs, late := -1, -1, -1
	for i, m := range table.Blocks {
		if m.Rank == 5 {
			mid = i
		}
		if m.Defs > 0 {
			defs = i
		}
		if m.Rank == 0 {
			late = i
		}
	}
	if mid < 0 || defs < 0 || late <= defs+1 {
		t.Fatal("the log has no block of rank 5, no definitions, or no rank 0 block after its first timed one")
	}
	for _, c := range []struct {
		name   string
		lie    func(*Table)
		begins int
	}{
		{"one record fewer", func(t *Table) { t.Blocks[mid].Records-- }, 2},
		{"another rank", func(t *Table) { t.Blocks[mid].Rank = 6 }, 2},
		{"no definitions", func(t *Table) { t.Blocks[defs].Defs = 0 }, 2},
		{"a definition after a timed record", func(t *Table) { t.Blocks[late].Defs = 1 }, 1},
	} {
		lied := copyTable(table)
		c.lie(lied)
		log := AppendTable(slices.Clone(data[:table.LogSize()]), lied)
		if _, err := ReadTable(bytes.NewReader(log), int64(len(log))); err != nil {
			t.Fatalf("%s: the table does not validate: %v", c.name, err)
		}
		q := MatchAll()
		got, used, begins, err := walkRanks(tabled(log), q, 2)
		if err != nil || used || begins != c.begins {
			t.Fatalf("%s: %v, table used %v, began %d times; want the scan's table, begun %d times", c.name, err, used, begins, c.begins)
		}
		if !reflect.DeepEqual(got, scanRanks(t, data, q)) {
			t.Errorf("%s: the answer differs from the scan's", c.name)
		}
	}
}

func copyTable(t *Table) *Table {
	c := *t
	c.Blocks = slices.Clone(t.Blocks)
	return &c
}

// FileInput reads a regular file through its block table and a pipe as a
// stream, to the same walk.
func TestFileInputReadsAPipeAsAStream(t *testing.T) {
	path := writeLog(t)
	data := readFile(t, path)
	want := scanRanks(t, data, MatchAll())
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	go func() {
		pw.Write(data)
		pw.Close()
	}()
	for _, c := range []struct {
		name string
		f    *os.File
		used bool
	}{{"a regular file", f, true}, {"a pipe", pr, false}} {
		in, err := FileInput(c.f)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, used, _, err := walkRanks(in, MatchAll(), 2)
		if err != nil || used != c.used || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %v, table used %v (want %v), the same walk as the scan's %v", c.name, err, used, c.used, reflect.DeepEqual(got, want))
		}
	}
}
