package jumpshot

import (
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/clog2"
	"repro/internal/slog2"
)

// oracle is the tie-order contract of slog2.SortRefs written the slow
// way: every drawable in frame order (All), the window filter, a stable
// sort by start. The answer comes back as a file of one frame, so that
// whatever Legend and Search make of it owes nothing to the frame tree.
func oracle(f *slog2.File, t0, t1 float64) *slog2.File {
	states, arrows, events := f.All()
	fr := &slog2.Frame{Start: f.Start, End: f.End}
	for _, s := range states {
		if s.End >= t0 && s.Start <= t1 {
			fr.States = append(fr.States, s)
		}
	}
	for _, a := range arrows {
		if max(a.Start, a.End) >= t0 && min(a.Start, a.End) <= t1 {
			fr.Arrows = append(fr.Arrows, a)
		}
	}
	for _, e := range events {
		if e.Time >= t0 && e.Time <= t1 {
			fr.Events = append(fr.Events, e)
		}
	}
	sort.SliceStable(fr.States, func(i, j int) bool { return fr.States[i].Start < fr.States[j].Start })
	sort.SliceStable(fr.Arrows, func(i, j int) bool { return fr.Arrows[i].Start < fr.Arrows[j].Start })
	sort.SliceStable(fr.Events, func(i, j int) bool { return fr.Events[i].Time < fr.Events[j].Time })
	return &slog2.File{NumRanks: f.NumRanks, Start: f.Start, End: f.End, Categories: f.Categories, Root: fr}
}

// Property: over 200 seeded windows on each golden trace, Query is the
// oracle's drawables in the oracle's order, and Legend and Search answer
// the same on the frame tree as on the oracle's single sorted frame. The
// golden .slog2 files are one frame each (two of them were logged under a
// frozen clock), so their rendered bytes pin the in-frame half of the
// order only. Here every rank's k-th record is stamped k/3 and the log is
// converted at eight drawables a frame: the trees come out four and more
// deep, timestamps are shared in threes within a rank and across ranks,
// some arrows point backwards, and the frame-order half decides the
// answer. Windows snap to a drawable's start half the time.
func TestQueryOrderMatchesOracle(t *testing.T) {
	for _, id := range []string{"lab2", "collisions", "thumbnail"} {
		r, err := os.Open("../../testdata/golden/" + id + ".clog2")
		if err != nil {
			t.Fatal(err)
		}
		br, err := clog2.NewBlockReader(r)
		var blocks []clog2.Block
		if err == nil {
			err = br.Each(func(b clog2.Block) error {
				recs := slices.Clone(b.Records)
				for k := range recs {
					recs[k].Time = float64(k / 3)
				}
				blocks = append(blocks, clog2.Block{Rank: b.Rank, Records: recs})
				return nil
			})
		}
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		f, _ := convertLog(t, br.NumRanks(), slog2.ConvertOptions{FrameCapacity: 8}, blocks...)
		if f.Depth() < 4 {
			t.Fatalf("%s: tree only %d deep", id, f.Depth())
		}
		all, _, _ := f.All()
		rng := rand.New(rand.NewSource(16))
		for i := 0; i < 200; i++ {
			t0 := f.Start + rng.Float64()*(f.End-f.Start)
			if i%2 == 0 {
				t0 = all[rng.Intn(len(all))].Start
			}
			t1 := t0 + rng.Float64()*rng.Float64()*(f.End-t0)
			want := oracle(f, t0, t1)
			states, arrows, events := f.Query(t0, t1)
			if !reflect.DeepEqual(states, want.Root.States) || !reflect.DeepEqual(arrows, want.Root.Arrows) ||
				!reflect.DeepEqual(events, want.Root.Events) {
				t.Fatalf("%s [%v, %v]: Query differs from the oracle (%d/%d/%d drawables against %d/%d/%d)", id, t0, t1,
					len(states), len(arrows), len(events), len(want.Root.States), len(want.Root.Arrows), len(want.Root.Events))
			}
			if got, want := Legend(f, t0, t1), Legend(want, t0, t1); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s [%v, %v]: Legend\n%v\non the oracle's frame\n%v", id, t0, t1, got, want)
			}
			for _, opts := range []SearchOptions{
				{Rank: -1, From: t0, To: t1},
				{Rank: -1, From: t0, To: t1, Limit: 1 + rng.Intn(40)},
				{Rank: rng.Intn(f.NumRanks), From: t0, To: t1, Limit: 25},
				{Rank: -1, From: t0, To: t1, Name: "pi_", Cargo: "line", MinDuration: 1e-6},
			} {
				if got, want := Search(f, opts), Search(want, opts); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %+v: Search finds %d hits, %d on the oracle's frame, or in another order", id, opts, len(got), len(want))
				}
			}
		}
	}
}
