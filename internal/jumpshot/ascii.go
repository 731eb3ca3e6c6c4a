package jumpshot

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/slog2"
)

// RenderASCII draws the log as one text row per rank, for terminals and
// quick structural tests. Each column is a time bucket showing the initial
// letter of the category occupying most of that bucket ('.' = idle,
// '*' = an event bubble with no surrounding state dominance).
func RenderASCII(f *slog2.File, v View) string {
	v = v.normalized(f)
	cols := v.Width
	if cols > 200 {
		cols = 120
	}
	if cols < 10 {
		cols = 10
	}
	span := (v.To - v.From) / float64(cols)
	if span <= 0 {
		span = 1e-9
	}
	events := f.Events(v.From, v.To)
	byRank := statesByRank(f, f.States(v.From, v.To), nil)
	grid := make([]buckets, f.NumRanks)
	hasEvent := make([][]bool, f.NumRanks)
	for r := range grid {
		grid[r] = exclusiveBuckets(byRank[r], v.From, span, cols, len(f.Categories))
		hasEvent[r] = make([]bool, cols)
	}
	colOf := func(t float64) int {
		c := int((t - v.From) / span)
		if c < 0 {
			c = 0
		}
		if c >= cols {
			c = cols - 1
		}
		return c
	}
	for _, r := range events {
		if e := r.D; e.Rank >= 0 && e.Rank < f.NumRanks {
			hasEvent[e.Rank][colOf(e.Time)] = true
		}
	}

	initial := func(cat int) byte {
		name := f.Categories[cat].Name
		name = strings.TrimPrefix(name, "PI_")
		if name == "" {
			return '?'
		}
		return name[0]
	}

	var b strings.Builder
	fmt.Fprintf(&b, "time %.6fs .. %.6fs, %d columns of %.6fs\n", v.From, v.To, cols, span)
	for r := 0; r < f.NumRanks; r++ {
		row := make([]byte, cols)
		for c := 0; c < cols; c++ {
			times, in := grid[r].bucket(c)
			switch {
			case slices.Contains(in, true):
				best, bestD := -1, 0.0
				for cat, d := range times {
					if in[cat] && (d > bestD || (d == bestD && best < 0)) {
						best, bestD = cat, d
					}
				}
				row[c] = initial(best)
			case hasEvent[r][c]:
				row[c] = '*'
			default:
				row[c] = '.'
			}
		}
		fmt.Fprintf(&b, "%-8s |%s|\n", rankLabel(r), row)
	}
	return b.String()
}
