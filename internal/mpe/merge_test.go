package mpe

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
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
// pages, a state left open) and however many they are, the file rank 0
// writes is the file a Writer produces from the records read back out of
// it, and the table written on the way is a scan's. The first is what
// lets rank 0 write a rank's pages where it used to re-encode them. Each
// rank's records come in rank order, cut into blocks of blockRecords
// (rank 0's definitions counted in its first), the last block of a rank
// holding the rest and ending in its timeshift.
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
		"last rank empty":      sixBut(func(rank, n int) bool { return rank == n-1 }),
		"rank 0 defs only":     sixBut(func(rank, n int) bool { return rank == 0 }),
		"one record":           func(rank, n int) int { return 1 },
		"page less two":        func(rank, n int) int { return page - 2 },
		"page less one":        func(rank, n int) int { return page - 1 },
		"page":                 func(rank, n int) int { return page },
		"page and one":         func(rank, n int) int { return page + 1 },
		"three pages":          func(rank, n int) int { return 3*page + rank },
		"five pages and block": func(rank, n int) int { return 5*page + blockRecords + 7*rank },
		"open state":           func(rank, n int) int { return 9 + 2*rank },
	}
	for name, load := range shapes {
		for _, n := range []int{1, 2, 3, 8} {
			w, g, sids, clocks := mergeWorld(n)
			var out bytes.Buffer
			var inline *clog2.Table
			want := make([]int, n) // records of each rank
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
			what := fmt.Sprintf("%s, %d ranks", name, n)
			br, err := clog2.NewBlockReader(bytes.NewReader(out.Bytes()))
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			var again bytes.Buffer
			cw, err := clog2.NewWriter(&again, br.NumRanks())
			if err != nil {
				t.Fatal(err)
			}
			var blocks []clog2.Block
			err = br.Each(func(b clog2.Block) error {
				blocks = append(blocks, clog2.Block{Rank: b.Rank, Records: slices.Clone(b.Records)})
				return cw.WriteBlock(b.Rank, b.Records)
			})
			if err == nil {
				err = cw.Close()
			}
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			rank, left := 0, want[0]
			for i, b := range blocks {
				if int(b.Rank) != rank || len(b.Records) != min(left, blockRecords) {
					t.Fatalf("%s: block %d is rank %d with %d records, want rank %d with %d", what, i, b.Rank, len(b.Records), rank, min(left, blockRecords))
				}
				if left -= len(b.Records); left > 0 {
					continue
				}
				if last := b.Records[len(b.Records)-1]; last.Type != clog2.RecTimeShift || math.Abs(last.Shift-0.5*float64(rank)) > 0.1 {
					t.Fatalf("%s: rank %d ends in %+v", what, rank, last)
				}
				if rank++; rank < n {
					left = want[rank]
				}
			}
			if rank != n {
				t.Fatalf("%s: the blocks end inside rank %d", what, rank)
			}
			if !bytes.Equal(out.Bytes(), again.Bytes()) {
				t.Fatalf("%s: the merged file differs from its own re-encoding", what)
			}
			checkTable(t, what, out.Bytes(), inline)
		}
	}
}

// firstCargoLen is the offset in a page of the first record's cargo
// length: logLoad's first record is a state start with 10 bytes of cargo.
const firstCargoLen = 17

// refusedMerge runs a 3-rank wrap-up in which rank 2 ships its log by
// hand, as mutate makes its pages and end message from its one good page
// of n records, and holds rank 0 to refusing it before a byte of it
// reaches the file: Finish fails naming rank 2 and saying want, rank 0's
// spill is kept, and the output holds ranks 0 and 1 as far as the Writer
// had handed them on and nothing of rank 2.
func refusedMerge(t *testing.T, name string, indexed bool, mutate func(page []byte, n int) (pages [][]byte, end []byte), want string) {
	t.Helper()
	w, g, sids, clocks := mergeWorld(3)
	prefix := filepath.Join(t.TempDir(), "run.clog2")
	g.EnableSpill(prefix)
	var out bytes.Buffer
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
		if _, err := l.syncClocks(); err != nil {
			return err
		}
		if len(l.pages) != 1 || l.pages[0][firstCargoLen] != 10 {
			t.Errorf("%d pages, the first record's cargo length %d: the cases' offsets are off", len(l.pages), l.pages[0][firstCargoLen])
		}
		pages, end := mutate(l.pages[0], l.n)
		for _, p := range pages {
			if err := r.SendCtx(mpi.CtxLog, 0, tagPage, p); err != nil {
				return err
			}
		}
		return r.SendCtx(mpi.CtxLog, 0, tagEnd, end)
	})
	if errs[1] != nil || errs[2] != nil {
		t.Fatalf("%s: ranks 1 and 2: %v, %v", name, errs[1], errs[2])
	}
	if errs[0] == nil || !strings.HasPrefix(errs[0].Error(), "mpe: parsing rank 2 log: ") || !strings.Contains(errs[0].Error(), want) {
		t.Errorf("%s (indexed %v): Finish gives %v, want mpe: parsing rank 2 log: ...%s", name, indexed, errs[0], want)
	}
	if _, err := os.Stat(spillRankPath(prefix, 0)); err != nil {
		t.Errorf("%s: rank 0's spill is gone after a failed merge: %v", name, err)
	}
	if out.Len() == 0 {
		return
	}
	br, err := clog2.NewBlockReader(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("%s: the output of a failed merge has no log header: %v", name, err)
	}
	err = br.Each(func(b clog2.Block) error {
		if b.Rank == 2 {
			t.Errorf("%s: a block of the refused rank reached the output", name)
		}
		return nil
	})
	if err == nil {
		t.Fatalf("%s: the output of a failed merge reads to its end-log marker", name)
	}
}

// endCount is the end message of a log of n records.
func endCount(n int) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(n)) }

// Hostile pages at rank 0. Every check the strict reading of a whole
// shipped log made is made on each page and on the end message, and a rank
// is refused before any of its blocks is written: what each case did to
// the one-payload log it did before, it does to the page or to the end
// message now.
func TestFinishRejectsHostilePayloads(t *testing.T) {
	overlong := clog2.Record{Type: clog2.RecCargoEvt, Rank: 2}
	overlong.CargoLen = clog2.MaxCargo
	whole := func(mutate func(p []byte) []byte) func([]byte, int) ([][]byte, []byte) {
		return func(p []byte, n int) ([][]byte, []byte) { return [][]byte{mutate(p)}, endCount(n) }
	}
	cases := []struct {
		name   string
		mutate func(page []byte, n int) ([][]byte, []byte)
		want   string
	}{
		{"truncated mid-record", whole(func(p []byte) []byte { return p[:len(p)-30] }), "cut short by the end at"},
		{"end message cut short", func(p []byte, n int) ([][]byte, []byte) { return [][]byte{p}, endCount(n)[:7] }, "an end message of 7 bytes, not a record count"},
		{"a record of another rank", whole(func(p []byte) []byte { p[9] = 1; return p }), "a CargoEvt record of rank 1 in a block of rank 2 (at byte 0)"},
		{"count one too many", func(p []byte, n int) ([][]byte, []byte) { return [][]byte{p}, endCount(n + 1) }, "it counts 11 records, its pages hold 10"},
		{"count one too few", func(p []byte, n int) ([][]byte, []byte) { return [][]byte{p}, endCount(n - 1) }, "it counts 9 records, its pages hold 10"},
		{"a marker after the records", whole(func(p []byte) []byte { return append(p, byte(clog2.RecEndBlock)) }), "marker EndBlock at byte"},
		{"the page sent twice", func(p []byte, n int) ([][]byte, []byte) { return [][]byte{p, p}, endCount(n) }, "a CargoEvt record of rank 2 stamped 101.0001, before its rank's 101.001"},
		{"a page whose record goes back", whole(func(p []byte) []byte { binary.LittleEndian.PutUint64(p[30:], 0); return p }),
			"clog2: a CargoEvt record of rank 2 stamped 0, before its rank's 101.0001 (at byte 29)"},
		{"a record stamped NaN", whole(func(p []byte) []byte { binary.LittleEndian.PutUint64(p[30:], math.Float64bits(math.NaN())); return p }),
			"clog2: a CargoEvt record of rank 2 stamped NaN (at byte 29)"},
		{"cargo length, low bit flipped", whole(func(p []byte) []byte { p[firstCargoLen] ^= 1; return p }), ""},
		{"cargo length, high byte flipped", whole(func(p []byte) []byte { p[firstCargoLen+1] ^= 1; return p }), "cargo of 266 bytes exceeds the 40 a writer emits"},
		{"well-formed cargo of 41 bytes", func(p []byte, n int) ([][]byte, []byte) {
			// A record other readers accept, cutting its cargo to 40:
			// written, it would put bytes in the file no Writer produces.
			rec, _ := clog2.AppendRecord(nil, &overlong)
			rec[17]++
			return [][]byte{append(append(rec, 'x'), p...)}, endCount(n + 1)
		}, "cargo of 41 bytes exceeds the 40 a writer emits"},
		{"not a log", func(p []byte, n int) ([][]byte, []byte) { return [][]byte{[]byte("hello")}, endCount(n) }, "record at byte 0 is not a timed record"},
	}
	for _, indexed := range []bool{false, true} {
		for _, c := range cases {
			refusedMerge(t, c.name, indexed, c.mutate, c.want)
		}
	}
}

// Each refusal the page check makes by name, one test a case.

func TestFinishRefusesARecordOfAnotherRank(t *testing.T) {
	refusedMerge(t, "another rank", false, func(p []byte, n int) ([][]byte, []byte) {
		binary.LittleEndian.PutUint32(p[9:], 0)
		return [][]byte{p}, endCount(n)
	}, "clog2: a CargoEvt record of rank 0 in a block of rank 2 (at byte 0)")
}

// A message half naming a peer outside the world is refused before a
// block of its rank is written, as the Writer and every reader would
// refuse its block.
func TestFinishRefusesAPeerOutsideTheWorld(t *testing.T) {
	refusedMerge(t, "peer outside", false, func(p []byte, n int) ([][]byte, []byte) {
		msg, _ := clog2.AppendRecord(nil, &clog2.Record{Type: clog2.RecMsgEvt, Time: 1000, Rank: 2, Dir: clog2.DirSend, Aux1: 3, Aux2: 1, Aux3: 8})
		return [][]byte{append(p, msg...)}, endCount(n + 1)
	}, fmt.Sprintf("clog2: a message half of rank 2 names peer rank 3, outside [0,3) (at byte %d)", pageLen10()))
}

func TestFinishRefusesARecordCutAtThePageEnd(t *testing.T) {
	refusedMerge(t, "cut at the end", false, func(p []byte, n int) ([][]byte, []byte) {
		return [][]byte{p[:len(p)-1]}, endCount(n)
	}, fmt.Sprintf("clog2: CargoEvt record at byte %d cut short by the end at %d", pageLen10()-19, pageLen10()-1))
}

func TestFinishRefusesAMarkerInAPage(t *testing.T) {
	refusedMerge(t, "marker", false, func(p []byte, n int) ([][]byte, []byte) {
		return [][]byte{append(p[:19+10:19+10], append([]byte{byte(clog2.RecEndLog)}, p[19+10:]...)...)}, endCount(n)
	}, "clog2: marker EndLog at byte 29 among records")
}

// stepBack is a clock that breaks clock.Source's contract: its third
// reading goes back ten seconds, and it counts on from there.
type stepBack struct {
	mu sync.Mutex
	n  float64
}

func (c *stepBack) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n++; c.n == 3 {
		c.n -= 10
	}
	return c.n
}

// A rank whose clock went back logs records out of time order, which
// breaks the rule of a block: Finish refuses the rank by name, with both
// stamps, and writes none of its blocks.
func TestFinishRefusesAClockThatWentBack(t *testing.T) {
	w := mpi.NewWorld(2, mpi.Options{Clocks: []clock.Source{clock.NewManual(100), &stepBack{}}})
	g := NewGroup(w, true)
	e := g.DescribeEvent("E", "yellow")
	var out bytes.Buffer
	errs := w.Run(func(r *mpi.Rank) error {
		l := g.Logger(r.ID())
		if r.ID() == 0 {
			return l.Finish(&out)
		}
		for i := 0; i < 4; i++ {
			l.Event(e, "x")
		}
		return l.Finish(nil)
	})
	want := regexp.MustCompile(`^mpe: parsing rank 1 log: clog2: a CargoEvt record of rank 1 stamped \S+, before its rank's \S+ \(at byte 40\)$`)
	if errs[1] != nil || errs[0] == nil || !want.MatchString(errs[0].Error()) {
		t.Fatalf("Finish gives %v on rank 0 and %v on rank 1, want %s on rank 0", errs[0], errs[1], want)
	}
}

func TestFinishRefusesAWrongEndCount(t *testing.T) {
	refusedMerge(t, "end count", false, func(p []byte, n int) ([][]byte, []byte) {
		return [][]byte{p}, endCount(2 * n)
	}, "mpe: parsing rank 2 log: it counts 20 records, its pages hold 10")
}

// pageLen10 is the length of the page logLoad fills with 10 records: its
// last record is a state end without cargo, 19 bytes.
func pageLen10() int {
	_, g, sids, clocks := mergeWorld(1)
	l := g.Logger(0)
	logLoad(l, clocks[0], sids, 10)
	defer l.Discard()
	return len(l.pages[0])
}

// The wrap-up copies no rank's log: a rank's pages go to rank 0 as they
// lie, and rank 0 writes them as they lie, so what Finish allocates is
// bookkeeping (messages, the block table, the Writer's buffer) and not the
// log. The merge that assembled each rank's log into one payload and sent
// it through a copying Send allocated about twice the log.
func TestFinishCopiesNoRankLog(t *testing.T) {
	w, g, sids, clocks := mergeWorld(2)
	l := g.Logger(1)
	logLoad(l, clocks[1], sids, 160_000)
	logBytes := 0
	for _, p := range l.pages {
		logBytes += len(p)
	}
	if logBytes < 4<<20 {
		t.Fatalf("rank 1 logged %d bytes, want 4 MiB or more", logBytes)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	errs := w.Run(func(r *mpi.Rank) error {
		if r.ID() == 0 {
			return g.Logger(0).Finish(io.Discard)
		}
		return g.Logger(1).Finish(nil)
	})
	runtime.ReadMemStats(&after)
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Finish allocated %d bytes for rank 1's log of %d", got, logBytes)
	if got >= uint64(logBytes/4) {
		t.Fatalf("Finish allocated %d bytes, a quarter or more of rank 1's %d-byte log", got, logBytes)
	}
}
