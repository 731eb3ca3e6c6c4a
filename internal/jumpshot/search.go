package jumpshot

import (
	"fmt"
	"strings"

	"repro/internal/slog2"
)

// Hit is one result of the search-and-scan facility, which "helps locate
// graphical objects which are hard to find".
type Hit struct {
	// Kind is "state", "event" or "arrow".
	Kind string
	// Name is the category name ("arrow" for arrows).
	Name string
	Rank int // for arrows, the source rank
	// Start and End bound the drawable (equal for events).
	Start, End float64
	// Detail is the popup-style description.
	Detail string
}

// SearchOptions narrows a search.
type SearchOptions struct {
	// Name, if non-empty, matches category names case-insensitively by
	// substring.
	Name string
	// Rank, if non-negative, restricts hits to one timeline.
	Rank int
	// From/To bound the scan window (inclusive); both zero means the
	// whole log.
	From, To float64
	// MinDuration drops states shorter than this (seconds).
	MinDuration float64
	// Cargo, if non-empty, matches popup text by substring.
	Cargo string
	// Limit caps the number of hits (0 = unlimited).
	Limit int
}

// Search scans the log for drawables matching opts, returning hits in
// start-time order; at equal starts states come before events before
// arrows, each kind in slog2.SortRefs' tie order. The frames under the
// window are filtered in place and only the hits that survive the limit
// are built.
func Search(f *slog2.File, opts SearchOptions) []Hit {
	t0, t1 := wholeIfZero(f, opts.From, opts.To)
	nameMatch := func(name string) bool {
		return strings.Contains(strings.ToLower(name), strings.ToLower(opts.Name))
	}
	catMatch := make([]bool, len(f.Categories))
	for i, c := range f.Categories {
		catMatch[i] = nameMatch(c.Name)
	}
	cargo := strings.ToLower(opts.Cargo)
	cargoMatch := func(text string) bool {
		return cargo == "" || strings.Contains(strings.ToLower(text), cargo)
	}
	rankMatch := func(rank int) bool { return opts.Rank < 0 || rank == opts.Rank }
	wantEvents, wantArrows := !(opts.MinDuration > 0), nameMatch("arrow") && cargo == ""

	var states, events, arrows []slog2.Ref[any]
	f.Frames(t0, t1, func(fr *slog2.Frame) {
		for i := range fr.States {
			s := &fr.States[i]
			if s.In(t0, t1) && catMatch[s.Cat] && rankMatch(s.Rank) && !(s.Duration() < opts.MinDuration) &&
				(cargoMatch(s.StartCargo) || cargoMatch(s.EndCargo)) {
				states = append(states, slog2.Ref[any]{At: s.Start, D: s})
			}
		}
		for i := 0; wantEvents && i < len(fr.Events); i++ {
			e := &fr.Events[i]
			if e.In(t0, t1) && catMatch[e.Cat] && rankMatch(e.Rank) && cargoMatch(e.Cargo) {
				events = append(events, slog2.Ref[any]{At: e.Time, D: e})
			}
		}
		for i := 0; wantArrows && i < len(fr.Arrows); i++ {
			a := &fr.Arrows[i]
			if a.In(t0, t1) && (rankMatch(a.SrcRank) || rankMatch(a.DstRank)) && !(a.End-a.Start < opts.MinDuration) {
				arrows = append(arrows, slog2.Ref[any]{At: a.Start, D: a})
			}
		}
	})
	found := slog2.SortRefs(append(append(states, events...), arrows...))
	if opts.Limit > 0 && len(found) > opts.Limit {
		found = found[:opts.Limit]
	}
	var hits []Hit
	for _, r := range found {
		switch d := r.D.(type) {
		case *slog2.State:
			hits = append(hits, Hit{
				Kind: "state", Name: f.Categories[d.Cat].Name, Rank: d.Rank, Start: d.Start, End: d.End,
				Detail: fmt.Sprintf("dur: %.6fs %s", d.Duration(), d.StartCargo),
			})
		case *slog2.Event:
			hits = append(hits, Hit{
				Kind: "event", Name: f.Categories[d.Cat].Name, Rank: d.Rank, Start: d.Time, End: d.Time,
				Detail: d.Cargo,
			})
		case *slog2.Arrow:
			// The arrow popup: "the start and end times of the
			// transmission, its duration, the MPI tag, and message size."
			hits = append(hits, Hit{
				Kind: "arrow", Name: "arrow", Rank: d.SrcRank, Start: d.Start, End: d.End,
				Detail: fmt.Sprintf("dur: %.6fs to: P%d tag: %d size: %d",
					d.End-d.Start, d.DstRank, d.Tag, d.Size),
			})
		}
	}
	return hits
}

// FormatHits renders hits as an aligned text listing.
func FormatHits(hits []Hit) string {
	var b strings.Builder
	for _, h := range hits {
		fmt.Fprintf(&b, "%-6s %-14s P%-3d [%12.6f, %12.6f] %s\n",
			h.Kind, h.Name, h.Rank, h.Start, h.End, h.Detail)
	}
	return b.String()
}
