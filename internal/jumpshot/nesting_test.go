package jumpshot

import (
	"testing"

	"repro/internal/slog2"
)

// TestNestingWalk feeds one rank's states, in start order, through
// outermostFirst and the nesting walk, and checks each state's depth and
// parent. A state is named by its Cat; parent -1 is none.
func TestNestingWalk(t *testing.T) {
	type st struct {
		start, end float64
	}
	for _, tc := range []struct {
		name    string
		states  []st // in start order, as a States query returns them
		order   []int
		depths  []int
		parents []int
	}{
		{
			name:    "properly nested",
			states:  []st{{0, 10}, {1, 5}, {2, 3}, {6, 9}},
			order:   []int{0, 1, 2, 3},
			depths:  []int{0, 1, 2, 1},
			parents: []int{-1, 0, 1, 0},
		},
		{
			name:    "siblings that touch",
			states:  []st{{0, 10}, {1, 3}, {3, 5}, {5, 10}},
			order:   []int{0, 1, 2, 3},
			depths:  []int{0, 1, 1, 1},
			parents: []int{-1, 0, 0, 0},
		},
		{
			name:    "equal starts, outermost first",
			states:  []st{{0, 2}, {0, 10}, {0, 5}, {4, 5}},
			order:   []int{1, 2, 0, 3},
			depths:  []int{0, 1, 2, 2},
			parents: []int{-1, 1, 2, 2},
		},
		{
			name:    "partial overlap",
			states:  []st{{0, 5}, {3, 8}, {9, 10}},
			order:   []int{0, 1, 2},
			depths:  []int{0, 1, 0},
			parents: []int{-1, -1, -1},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			states := make([]slog2.State, len(tc.states))
			rs := make([]slog2.Ref[*slog2.State], len(tc.states))
			for i, s := range tc.states {
				states[i] = slog2.State{Cat: i, Start: s.start, End: s.end}
				rs[i] = slog2.Ref[*slog2.State]{At: s.start, D: &states[i]}
			}
			outermostFirst(rs)
			var walk nesting
			for i, r := range rs {
				if r.D.Cat != tc.order[i] {
					t.Fatalf("walk step %d is state %d, want %d", i, r.D.Cat, tc.order[i])
				}
				depth, parent := walk.enter(r.D)
				got := -1
				if parent != nil {
					got = parent.Cat
				}
				if depth != tc.depths[i] || got != tc.parents[i] {
					t.Errorf("state %d [%g, %g]: depth %d, parent %d; want %d, %d",
						r.D.Cat, r.D.Start, r.D.End, depth, got, tc.depths[i], tc.parents[i])
				}
			}
		})
	}
}
