package jumpshot

import (
	"encoding/json"
	"fmt"

	"repro/internal/slog2"
)

// traceEvent is one Chrome trace-event record (the chrome://tracing and
// Perfetto JSON format).
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	ID    int            `json:"id,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Cat   string         `json:"cat,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// RenderChromeTrace exports the log as Chrome trace-event JSON, openable
// in chrome://tracing or Perfetto: states become complete ("X") slices on
// one thread per rank, message arrows become flow events ("s"/"f"), and
// bubbles become instant events. The modern descendant of viewing an
// SLOG-2 in Jumpshot — same data, today's viewer.
func RenderChromeTrace(f *slog2.File) ([]byte, error) {
	states, arrows, events := f.All()
	toUS := func(t float64) float64 { return (t - f.Start) * 1e6 }

	out := make([]traceEvent, 0, len(states)+2*len(arrows)+len(events)+f.NumRanks)
	// Thread names: rank 0 = PI_MAIN, like the timeline labels.
	for r := 0; r < f.NumRanks; r++ {
		out = append(out, traceEvent{
			Name: "thread_name", Phase: "M", PID: 0, TID: r,
			Args: map[string]any{"name": rankLabel(r)},
		})
	}
	for _, s := range states {
		cat := f.Categories[s.Cat]
		ev := traceEvent{
			Name: cat.Name, Phase: "X", Cat: "state",
			TS: toUS(s.Start), Dur: toUS(s.End) - toUS(s.Start),
			PID: 0, TID: s.Rank,
		}
		if s.StartCargo != "" {
			ev.Args = map[string]any{"cargo": s.StartCargo}
		}
		out = append(out, ev)
	}
	for i, a := range arrows {
		args := map[string]any{"tag": a.Tag, "size": a.Size}
		out = append(out,
			traceEvent{Name: "message", Phase: "s", Cat: "msg",
				TS: toUS(a.Start), PID: 0, TID: a.SrcRank, ID: i + 1, Args: args},
			traceEvent{Name: "message", Phase: "f", BP: "e", Cat: "msg",
				TS: toUS(a.End), PID: 0, TID: a.DstRank, ID: i + 1, Args: args},
		)
	}
	for _, e := range events {
		ev := traceEvent{
			Name: f.Categories[e.Cat].Name, Phase: "i", Scope: "t",
			TS: toUS(e.Time), PID: 0, TID: e.Rank, Cat: "event",
		}
		if e.Cargo != "" {
			ev.Args = map[string]any{"cargo": e.Cargo}
		}
		out = append(out, ev)
	}
	return json.MarshalIndent(map[string]any{
		"traceEvents":     out,
		"displayTimeUnit": "ms",
	}, "", " ")
}

// At returns a popup-style description of the drawables at (rank, t) —
// the primitive behind "coloured bars and yellow bubbles can be clicked
// for detailed information". States are reported innermost first.
func At(f *slog2.File, rank int, t float64) []string {
	const eventSlop = 1e-6
	t0, t1 := t-eventSlop, t+eventSlop
	var out []string
	// Innermost = shortest containing state first.
	var containing []*slog2.State
	for _, r := range f.States(t0, t1) {
		if s := r.D; s.Rank == rank && s.Start <= t && t <= s.End {
			containing = append(containing, s)
		}
	}
	for i := 0; i < len(containing); i++ {
		for j := i + 1; j < len(containing); j++ {
			if containing[j].Duration() < containing[i].Duration() {
				containing[i], containing[j] = containing[j], containing[i]
			}
		}
	}
	for _, s := range containing {
		out = append(out, fmt.Sprintf("state %s start: %.6f end: %.6f dur: %.6f %s",
			f.Categories[s.Cat].Name, s.Start, s.End, s.Duration(), s.StartCargo))
	}
	for _, r := range f.Events(t0, t1) {
		if e := r.D; e.Rank == rank {
			out = append(out, fmt.Sprintf("event %s t: %.6f %s",
				f.Categories[e.Cat].Name, e.Time, e.Cargo))
		}
	}
	for _, r := range f.Arrows(t0, t1) {
		if a := r.D; (a.SrcRank == rank && withinSlop(a.Start, t, eventSlop)) ||
			(a.DstRank == rank && withinSlop(a.End, t, eventSlop)) {
			out = append(out, fmt.Sprintf("message P%d->P%d start: %.6f end: %.6f dur: %.6f tag: %d size: %d",
				a.SrcRank, a.DstRank, a.Start, a.End, a.End-a.Start, a.Tag, a.Size))
		}
	}
	return out
}

func withinSlop(a, b, slop float64) bool {
	d := a - b
	return d <= slop && d >= -slop
}
