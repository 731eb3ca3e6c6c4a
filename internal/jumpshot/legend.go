// Package jumpshot is a deterministic re-implementation of the Jumpshot-4
// viewer's drawing and analysis logic for SLOG-2 logs: timeline rendering
// to SVG and ASCII, the legend table with count/inclusive/exclusive
// statistics, duration statistics (histogram) views, search-and-scan, and
// the zoomed-out preview striping that shows category proportions when
// states are too numerous to draw individually.
//
// Jumpshot itself is a Java GUI; everything the paper relies on — the
// colour plan, nesting, bubbles, arrows, legend statistics — is about what
// gets drawn, which this package reproduces without a GUI.
package jumpshot

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/slog2"
)

// LegendEntry is one row of Jumpshot's legend window: "the coloured icon,
// the name, and some simple statistics: a count of the number of instances
// ... and two durations marked incl and excl."
type LegendEntry struct {
	Name  string
	Color string
	Kind  slog2.CategoryKind
	// Count is the number of instances (states or events) of the category.
	Count int
	// Incl is the summed duration of all state instances — "equal to
	// adding the widths of all its state rectangles".
	Incl float64
	// Excl is Incl minus directly nested states — "the time spent
	// computing purely in the state and not in its substates".
	Excl float64
}

// Legend computes the legend table over the drawables intersecting
// [t0, t1] (pass f.Start, f.End for the whole log). Entries appear in
// category order.
func Legend(f *slog2.File, t0, t1 float64) []LegendEntry {
	entries := make([]LegendEntry, len(f.Categories))
	for i, c := range f.Categories {
		entries[i] = LegendEntry{Name: c.Name, Color: c.Color, Kind: c.Kind}
	}
	// Durations are summed in start order, so the sums do not depend on
	// how the converter cut the frames.
	states := f.States(t0, t1)
	for _, r := range states {
		entries[r.D.Cat].Count++
		entries[r.D.Cat].Incl += r.D.Duration()
		entries[r.D.Cat].Excl += r.D.Duration()
	}
	f.Frames(t0, t1, func(fr *slog2.Frame) {
		for i := range fr.Events {
			if e := &fr.Events[i]; e.In(t0, t1) {
				entries[e.Cat].Count++
			}
		}
	})
	// Subtract directly nested children from their parents' exclusive
	// time, rank by rank.
	for _, rs := range statesByRank(f, states, nil) {
		var walk nesting
		for _, r := range rs {
			if _, parent := walk.enter(r.D); parent != nil {
				entries[parent.Cat].Excl -= r.D.Duration()
			}
		}
	}
	return entries
}

// SortLegend orders entries by the given key ("name", "count", "incl",
// "excl"), descending for the numeric keys — the legend window's sortable
// columns.
func SortLegend(entries []LegendEntry, key string) {
	switch key {
	case "count":
		sort.SliceStable(entries, func(i, j int) bool { return entries[i].Count > entries[j].Count })
	case "incl":
		sort.SliceStable(entries, func(i, j int) bool { return entries[i].Incl > entries[j].Incl })
	case "excl":
		sort.SliceStable(entries, func(i, j int) bool { return entries[i].Excl > entries[j].Excl })
	default:
		sort.SliceStable(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	}
}

// FormatLegend renders the legend as an aligned text table.
func FormatLegend(entries []LegendEntry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-12s %8s %12s %12s\n", "name", "color", "count", "incl (s)", "excl (s)")
	for _, e := range entries {
		if e.Kind == slog2.KindEvent {
			fmt.Fprintf(&b, "%-14s %-12s %8d %12s %12s  (event)\n", e.Name, e.Color, e.Count, "-", "-")
			continue
		}
		fmt.Fprintf(&b, "%-14s %-12s %8d %12.6f %12.6f  (state)\n", e.Name, e.Color, e.Count, e.Incl, e.Excl)
	}
	return b.String()
}
