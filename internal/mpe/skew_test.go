package mpe

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/mpi"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// skewedRun is a 2-rank run on Manual clocks in which rank 1 reads its
// clock through a Skewed one, so Finish moves every record rank 1 logged
// by a fractional offset. Rank 1 logs more than two 64 KiB pages of
// records: cargo of every length from 0 to 42 bytes (the last two cut to
// 40), both message halves, solo events, and two states left open for
// synthetic ends.
func skewedRun(t *testing.T) []byte {
	t.Helper()
	base := []*clock.Manual{clock.NewManual(100), clock.NewManual(100.25)}
	w := mpi.NewWorld(2, mpi.Options{Clocks: []clock.Source{base[0], clock.NewSkewed(base[1], 2.7182818, 3e-6, 0)}})
	g := NewGroup(w, true)
	a, b := g.DescribeState("A", "red"), g.DescribeState("B", "green")
	eid := g.DescribeEvent("E", "yellow")
	var out bytes.Buffer
	errs := w.Run(func(r *mpi.Rank) error {
		l := g.Logger(r.ID())
		if r.ID() == 0 {
			for i := 0; i < 20; i++ {
				base[0].Advance(1e-3)
				l.StateStart(a, "rank 0")
				l.LogRecv(1, i%3, 8*i)
				l.StateEnd(a, "")
			}
			return l.Finish(&out)
		}
		k := 0
		cargo := func() string { k++; return strings.Repeat("c", (k-1)%43) }
		for i := 0; i < 5000; i++ {
			base[1].Advance(1e-4 + float64(i%7)*1e-6)
			switch i % 8 {
			case 0:
				l.StateStart(a, cargo())
			case 1:
				l.LogSend(0, i%5, i)
			case 2:
				l.StateStartBytes(b, []byte(cargo()))
			case 3:
				l.Event(eid, cargo())
			case 4:
				l.StateEndBytes(b, []byte(cargo()))
			case 5:
				l.LogRecv(0, i%3, i)
			case 6:
				l.EventBytes(eid, []byte(cargo()))
			default:
				l.StateEnd(a, cargo())
			}
		}
		l.StateStart(a, "outer")
		l.StateStart(b, "inner")
		return l.Finish(nil)
	})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return out.Bytes()
}

// The time shift Finish applies is pinned byte for byte: the golden holds
// every record rank 1 logged moved onto rank 0's timebase, and the log's
// block table.
func TestSkewedClockGolden(t *testing.T) {
	got := skewedRun(t)
	path := filepath.Join("testdata", "skewed.clog2")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the skewed run's log (%d bytes) differs from %s (%d bytes)", len(got), path, len(want))
	}
	if len(got) < 2<<16 {
		t.Fatalf("the skewed run's log is %d bytes: rank 1 fills less than two 64 KiB pages", len(got))
	}
	checkTable(t, "skewed run", got, nil)
}
