package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/clog2"
	"repro/internal/idx"
)

// On every golden, a dump through the log's block table prints what a dump
// of the same log with its footer cut off prints, which is the full scan's,
// for every combination of window, rank and channel filters.
func TestDumpThroughTableEqualsScan(t *testing.T) {
	for _, name := range []string{"lab2", "collisions", "thumbnail"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", name+".clog2"))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		table, cut := filepath.Join(dir, "table.clog2"), filepath.Join(dir, "cut.clog2")
		if err := os.WriteFile(table, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cut, data[:len(data)-clog2.FooterSize], 0o644); err != nil {
			t.Fatal(err)
		}
		ix, err := idx.Load(table)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if idx.Probe(cut) != idx.StatusDegraded {
			t.Fatalf("%s: a log without its footer still has a table", name)
		}
		tmin, tmax, ch := math.Inf(1), math.Inf(-1), int32(-1)
		for _, b := range ix.Blocks {
			if b.Records > b.Defs {
				tmin, tmax = math.Min(tmin, b.TMin), math.Max(tmax, b.TMax)
			}
			if b.Msgs > 0 {
				ch = b.ChanMax
			}
		}
		mid := tmin + (tmax-tmin)/2
		for _, w := range [][2]float64{{math.Inf(-1), math.Inf(1)}, {tmin, mid}, {mid, tmax}, {tmax + 1, tmax + 2}} {
			for _, rank := range []int32{-1, 0, int32(ix.NumRanks - 1)} {
				for _, channel := range []int32{-1, ch} {
					q := idx.Query{T0: w[0], T1: w[1], Rank: rank, Chan: channel, IncludeDefs: true}
					var a, b bytes.Buffer
					if err := dump(&a, io.Discard, table, q, q.Matches); err != nil {
						t.Fatal(err)
					}
					if err := dump(&b, io.Discard, cut, q, q.Matches); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(a.Bytes(), b.Bytes()) {
						t.Errorf("%s %+v: the dump through the table differs from the scan's\ntable: %.300s\nscan:  %.300s", name, q, a.Bytes(), b.Bytes())
					}
					if rank < 0 && channel < 0 && math.IsInf(w[0], -1) {
						if want := fmt.Sprintf("%d record(s)\n", ix.TotalRecords); !bytes.HasSuffix(a.Bytes(), []byte(want)) {
							t.Errorf("%s: an unfiltered dump ends %q, want %q", name, a.Bytes()[max(0, a.Len()-30):], want)
						}
					}
				}
			}
		}
	}
}

// A log with no end-log marker shows its complete blocks, with a warning.
func TestDumpTornLog(t *testing.T) {
	log, err := clog2.AppendBlock(clog2.AppendHeader(nil, 1), 0, []clog2.Record{{Type: clog2.RecBareEvt, Time: 1, ID: 2}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "torn.clog2")
	if err := os.WriteFile(path, append(log, log[clog2.HeaderSize:len(log)-3]...), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, warn bytes.Buffer
	q := idx.MatchAll()
	if err := dump(&out, &warn, path, q, q.Matches); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "ranks: 1\n"+formatRecord(clog2.Record{Type: clog2.RecBareEvt, Time: 1, ID: 2})+"\n1 record(s)\n" {
		t.Errorf("torn log dumps %q", got)
	}
	if warn.Len() == 0 {
		t.Error("no warning for a torn log")
	}
}
