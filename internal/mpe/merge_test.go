package mpe

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/clog2"
	"repro/internal/mpi"
)

// Property: the merged CLOG-2 contains exactly the records every rank
// buffered (plus one timeshift per rank and the definition table), for
// random per-rank logging loads.
func TestFinishMergePreservesEverythingProperty(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(5) + 1
		w := mpi.NewWorld(n, mpi.Options{})
		g := NewGroup(w, true)
		sids := []StateID{
			g.DescribeState("A", "red"),
			g.DescribeState("B", "green"),
		}
		eid := g.DescribeEvent("E", "yellow")

		wantPerRank := make([]int, n)
		loads := make([]int, n)
		for r := 0; r < n; r++ {
			loads[r] = rng.Intn(50)
		}
		var out bytes.Buffer
		errs := w.Run(func(r *mpi.Rank) error {
			l := g.Logger(r.ID())
			for i := 0; i < loads[r.ID()]; i++ {
				sid := sids[i%len(sids)]
				l.StateStart(sid, "x")
				l.StateEnd(sid, "")
				if i%3 == 0 {
					l.Event(eid, "e")
				}
			}
			if r.ID() == 0 {
				return l.Finish(&out)
			}
			return l.Finish(nil)
		})
		for i, err := range errs {
			if err != nil {
				t.Fatalf("seed %d rank %d: %v", seed, i, err)
			}
		}
		for r := 0; r < n; r++ {
			wantPerRank[r] = 2*loads[r] + (loads[r]+2)/3 // starts+ends+events
		}

		_, recs := logRecords(t, &out)
		gotPerRank := make([]int, n)
		shifts := 0
		for _, rec := range recs {
			switch rec.Type {
			case clog2.RecCargoEvt, clog2.RecBareEvt:
				gotPerRank[rec.Rank]++
			case clog2.RecTimeShift:
				shifts++
			}
		}
		for r := 0; r < n; r++ {
			if gotPerRank[r] != wantPerRank[r] {
				t.Fatalf("seed %d rank %d: merged %d records, want %d",
					seed, r, gotPerRank[r], wantPerRank[r])
			}
		}
		if shifts != n {
			t.Fatalf("seed %d: %d timeshifts, want %d", seed, shifts, n)
		}
		if got := countType(recs, clog2.RecStateDef); got != 2 {
			t.Fatalf("seed %d: %d state defs", seed, got)
		}
	}
}

// mergeWorld is an n-rank world on Manual clocks half a second apart, so
// every rank but 0 has a clock offset to undo and a run's bytes repeat.
func mergeWorld(n int) (*mpi.World, *Group, []StateID, []*clock.Manual) {
	clocks := make([]*clock.Manual, n)
	srcs := make([]clock.Source, n)
	for r := range clocks {
		clocks[r] = clock.NewManual(100 + 0.5*float64(r))
		srcs[r] = clocks[r]
	}
	w := mpi.NewWorld(n, mpi.Options{Clocks: srcs})
	g := NewGroup(w, true)
	sids := []StateID{g.DescribeState("A", "red"), g.DescribeState("B", "green")}
	g.DescribeEvent("E", "yellow")
	return w, g, sids, clocks
}

// logLoad logs records records on l (state starts and ends with cargo of
// every length, and arrow halves) and returns how many states it left
// open for Finish to close.
func logLoad(l *Logger, clk *clock.Manual, sids []StateID, records int) (open int) {
	for i := 0; i < records; i++ {
		clk.Advance(1e-4)
		switch sid := sids[i/2%len(sids)]; {
		case i%7 == 6:
			l.LogSend(0, i%5, i)
		case i%2 == 0:
			l.StateStart(sid, strings.Repeat("c", (i+10)%(clog2.MaxCargo+3)))
		default:
			l.StateEnd(sid, "")
		}
	}
	return len(l.openStates)
}

// pageRecords is how many of logLoad's records a page holds.
func pageRecords(t *testing.T) int {
	_, g, sids, clocks := mergeWorld(1)
	l := g.Logger(0)
	logLoad(l, clocks[0], sids, pageSize/8) // 8 KiB records of 17 bytes or more
	n := 0
	for p := l.pages[0]; len(p) > 0; p = p[clog2.TimedSize(p):] {
		n++
	}
	if len(l.pages) < 2 || n < pageSize/clog2.MaxTimedRecord {
		t.Fatalf("%d records on the first of %d pages", n, len(l.pages))
	}
	l.Discard()
	return n
}

// The merge matrix: whatever the ranks hold (nothing, only rank 0's
// definitions, one record, a record either side of a page's end, several
// pages, a state left open) and however many they are, the file
// rank 0 writes is the file a Writer produces from the records read back
// out of it, and the table written on the way is a scan's. The first
// is what lets rank 0 copy a rank's block where it used to re-encode it.
func TestFinishMergeMatrix(t *testing.T) {
	// sixBut gives every rank six records but the one idle picks.
	sixBut := func(idle func(rank, n int) bool) func(rank, n int) int {
		return func(rank, n int) int {
			if idle(rank, n) {
				return 0
			}
			return 6
		}
	}
	page := pageRecords(t)
	shapes := map[string]func(rank, n int) int{
		"last rank empty":  sixBut(func(rank, n int) bool { return rank == n-1 }),
		"rank 0 defs only": sixBut(func(rank, n int) bool { return rank == 0 }),
		"one record":       func(rank, n int) int { return 1 },
		"page less two":    func(rank, n int) int { return page - 2 },
		"page less one":    func(rank, n int) int { return page - 1 },
		"page":             func(rank, n int) int { return page },
		"page and one":     func(rank, n int) int { return page + 1 },
		"three pages":      func(rank, n int) int { return 3*page + rank },
		"open state":       func(rank, n int) int { return 9 + 2*rank },
	}
	for name, load := range shapes {
		for _, n := range []int{1, 2, 3, 8} {
			w, g, sids, clocks := mergeWorld(n)
			var out bytes.Buffer
			var inline *clog2.Table
			want := make([]int, n) // records in each rank's block
			errs := w.Run(func(r *mpi.Rank) error {
				l := g.Logger(r.ID())
				// What was logged, a synthetic end for every state left
				// open, the timeshift; rank 0 leads with the definitions.
				want[r.ID()] = load(r.ID(), n) + logLoad(l, clocks[r.ID()], sids, load(r.ID(), n)) + 1
				if r.ID() != 0 {
					return l.Finish(nil)
				}
				want[0] += 3
				ix, err := l.FinishIndexed(&out)
				inline = ix
				return err
			})
			for rank, err := range errs {
				if err != nil {
					t.Fatalf("%s, %d ranks: rank %d: %v", name, n, rank, err)
				}
			}
			br, err := clog2.NewBlockReader(bytes.NewReader(out.Bytes()))
			if err != nil {
				t.Fatalf("%s, %d ranks: %v", name, n, err)
			}
			var again bytes.Buffer
			cw, err := clog2.NewWriter(&again, br.NumRanks())
			if err != nil {
				t.Fatal(err)
			}
			rank := 0
			err = br.EachBlock(func(b clog2.Block) error {
				if rank >= n || int(b.Rank) != rank || len(b.Records) != want[rank] {
					t.Fatalf("%s, %d ranks: block %d is rank %d with %d records, want %d", name, n, rank, b.Rank, len(b.Records), want[min(rank, n-1)])
				}
				if last := b.Records[len(b.Records)-1]; last.Type != clog2.RecTimeShift || math.Abs(last.Shift-0.5*float64(rank)) > 0.1 {
					t.Fatalf("%s, %d ranks: rank %d ends in %+v", name, n, rank, last)
				}
				rank++
				return cw.WriteBlock(b.Rank, b.Records)
			})
			if err == nil && rank != n {
				err = fmt.Errorf("%d blocks", rank)
			}
			if err == nil {
				err = cw.Close()
			}
			if err != nil {
				t.Fatalf("%s, %d ranks: %v", name, n, err)
			}
			if !bytes.Equal(out.Bytes(), again.Bytes()) {
				t.Fatalf("%s, %d ranks: the merged file differs from its own re-encoding", name, n)
			}
			checkTable(t, fmt.Sprintf("%s, %d ranks", name, n), out.Bytes(), inline)
		}
	}
}

// Hostile payloads at rank 0. Every check the decoding merge made, the
// copying merge makes before a byte of the payload reaches the file:
// Finish fails naming the rank, keeps rank 0's spill, and the output
// holds nothing of the payload it refused (whole-payload validation, so
// not even the blocks before the damage).
func TestFinishRejectsHostilePayloads(t *testing.T) {
	const (
		count    = clog2.HeaderSize + 4      // the block header's record count
		cargoLen = clog2.HeaderSize + 8 + 17 // the first record's cargo length
	)
	patch := func(off int, b byte) func([]byte) []byte {
		return func(p []byte) []byte { p[off] = b; return p }
	}
	overlong := clog2.Record{Type: clog2.RecCargoEvt, Rank: 1}
	overlong.CargoLen = clog2.MaxCargo
	cases := []struct {
		name   string
		mutate func(good []byte) []byte
		want   string
	}{
		{"truncated mid-record", func(p []byte) []byte { return p[:len(p)-30] }, "truncated file"},
		{"end-log marker missing", func(p []byte) []byte { return p[:len(p)-1] }, "truncated file"},
		{"header rank is not the sender", patch(clog2.HeaderSize, 2), "it holds a block of rank 1"},
		{"count one too many", func(p []byte) []byte { p[count]++; return p }, ""},
		{"count one too few", func(p []byte) []byte { p[count]--; return p }, "not terminated"},
		{"bytes after the end-log marker", func(p []byte) []byte { return append(p, byte(clog2.RecEndBlock)) }, "1 trailing bytes after the end-log marker"},
		{"a second log after the first", func(p []byte) []byte { return append(p, p...) }, "trailing bytes after the end-log marker"},
		{"cargo length, low bit flipped", func(p []byte) []byte { p[cargoLen] ^= 1; return p }, ""},
		{"cargo length, high byte flipped", func(p []byte) []byte { p[cargoLen+1] ^= 1; return p }, "cargo of 266 bytes exceeds the 40 a writer emits"},
		{"well-formed cargo of 41 bytes", func(p []byte) []byte {
			// A record other readers accept, cutting its cargo to 40: copied,
			// it would put bytes in the file no Writer produces.
			rec, _ := clog2.AppendRecord(nil, &overlong)
			rec[17]++
			rec = append(rec, 'x')
			p[count]++
			return append(p[:count+4], append(rec, p[count+4:]...)...)
		}, "cargo of 41 bytes exceeds the 40 a writer emits"},
		{"not a log", func(p []byte) []byte { return []byte("hello") }, "reading magic"},
	}
	for _, indexed := range []bool{false, true} {
		for _, c := range cases {
			w, g, sids, clocks := mergeWorld(3)
			prefix := filepath.Join(t.TempDir(), "run.clog2")
			g.EnableSpill(prefix)
			var out bytes.Buffer
			var sent int
			errs := w.Run(func(r *mpi.Rank) error {
				l := g.Logger(r.ID())
				logLoad(l, clocks[r.ID()], sids, 10)
				switch r.ID() {
				case 0:
					if indexed {
						_, err := l.FinishIndexed(&out)
						return err
					}
					return l.Finish(&out)
				case 1:
					return l.Finish(nil)
				}
				// Rank 2 goes through the wrap-up by hand and ships a damaged log.
				if _, err := l.syncClocks(); err != nil {
					return err
				}
				good := l.appendLog(nil)
				if good[cargoLen] != 10 {
					t.Errorf("the first record's cargo length is %d: the table's offsets are off", good[cargoLen])
				}
				bad := c.mutate(good)
				sent = len(bad)
				return r.SendCtx(mpi.CtxLog, 0, tagCollect, bad)
			})
			if errs[1] != nil || errs[2] != nil {
				t.Fatalf("%s: ranks 1 and 2: %v, %v", c.name, errs[1], errs[2])
			}
			if errs[0] == nil || !strings.HasPrefix(errs[0].Error(), "mpe: parsing rank 2 log: ") || !strings.Contains(errs[0].Error(), c.want) {
				t.Errorf("%s (indexed %v): Finish gives %v, want mpe: parsing rank 2 log: ...%s", c.name, indexed, errs[0], c.want)
			}
			if _, err := os.Stat(spillRankPath(prefix, 0)); err != nil {
				t.Errorf("%s: rank 0's spill is gone after a failed merge: %v", c.name, err)
			}
			// Ranks 0 and 1 are in the output as far as the Writer had handed
			// them on; of rank 2 there is nothing.
			if out.Len() > 0 {
				br, err := clog2.NewBlockReader(bytes.NewReader(out.Bytes()))
				if err == nil {
					err = br.EachBlock(func(b clog2.Block) error {
						if b.Rank == 2 {
							t.Errorf("%s: a block of the refused rank reached the output", c.name)
						}
						return nil
					})
					if err == nil {
						t.Fatalf("%s: the output of a failed merge reads to its end-log marker", c.name)
					}
				} else {
					t.Fatalf("%s: the output of a failed merge has no log header: %v", c.name, err)
				}
			}
			if sent > 0 && out.Len() > 0 && bytes.Contains(out.Bytes(), []byte{3, 0, 0, 0, 11}) {
				t.Errorf("%s: rank 2's block header is in the output", c.name)
			}
		}
	}
}

// The wrap-up's memory is the encoded log, not the records: a rank copies
// its pages into a buffer sized for them (one payload, pooled), the
// transport copies it (another), and rank 0 decodes it a run at a time
// into one fixed buffer. The decoding merge grew a []clog2.Record to hold a whole
// foreign rank, about five times 144 B for each of its records.
func TestFinishMemoryIsTheEncodedLog(t *testing.T) {
	const records = 100_000
	w, g, sids, clocks := mergeWorld(2)
	for r := 0; r < 2; r++ {
		logLoad(g.Logger(r), clocks[r], sids, records)
	}
	path := filepath.Join(t.TempDir(), "run.clog2")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for rank, err := range w.Run(func(r *mpi.Rank) error { return g.Logger(r.ID()).FinishFile(path) }) {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	runtime.ReadMemStats(&after)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := fi.Size() / 2
	t.Logf("FinishFile of 2 x %d records allocated %d bytes for a %d-byte payload", records, after.TotalAlloc-before.TotalAlloc, payload)
	if got := int64(after.TotalAlloc - before.TotalAlloc); got > 3*payload {
		t.Fatalf("FinishFile of 2 x %d records allocated %d bytes: more than 3 x the %d-byte payload (144 B x records is %d)",
			records, got, payload, 144*records)
	}
}
