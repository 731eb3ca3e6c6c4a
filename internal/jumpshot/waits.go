package jumpshot

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/colors"
	"repro/internal/slog2"
)

// WaitEdge is one cell of the wait matrix: how long a rank spent blocked
// in input operations whose message ultimately came from a given sender.
type WaitEdge struct {
	Waiter, Sender int
	// Blocked is the total time Waiter spent inside input states that were
	// resolved by a message from Sender.
	Blocked float64
	// Count is the number of such blocked operations.
	Count int
}

// WaitMatrix attributes every input-category state (PI_Read, PI_Gather,
// PI_Reduce, PI_Select) on every rank to the sender whose message arrived
// inside it, answering the debugging question the paper's Section IV.B
// figures pose visually: who is everyone waiting for? Edges are returned
// sorted by blocked time, longest first.
//
// States containing no arrival (e.g. a PI_Select that returned without a
// message record) are attributed to sender -1.
func WaitMatrix(f *slog2.File, t0, t1 float64) []WaitEdge {
	type key struct{ waiter, sender int }
	acc := map[key]*WaitEdge{}
	add := func(waiter, sender int, d float64) {
		k := key{waiter, sender}
		e := acc[k]
		if e == nil {
			e = &WaitEdge{Waiter: waiter, Sender: sender}
			acc[k] = e
		}
		e.Blocked += d
		e.Count++
	}

	// Arrows ending on a rank, sorted by arrival time for binary search.
	arrivals := map[int][]*slog2.Arrow{}
	for _, r := range f.Arrows(t0, t1) {
		arrivals[r.D.DstRank] = append(arrivals[r.D.DstRank], r.D)
	}
	for r := range arrivals {
		as := arrivals[r]
		sort.Slice(as, func(i, j int) bool { return as[i].End < as[j].End })
	}

	for _, r := range f.States(t0, t1) {
		s := r.D
		if colors.CategoryOf(f.Categories[s.Cat].Name) != colors.Input {
			continue
		}
		sender := -1
		as := arrivals[s.Rank]
		// First arrival inside [s.Start, s.End].
		i := sort.Search(len(as), func(i int) bool { return as[i].End >= s.Start })
		if i < len(as) && as[i].End <= s.End {
			sender = as[i].SrcRank
		}
		add(s.Rank, sender, s.Duration())
	}

	out := make([]WaitEdge, 0, len(acc))
	for _, e := range acc {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Blocked != out[j].Blocked {
			return out[i].Blocked > out[j].Blocked
		}
		if out[i].Waiter != out[j].Waiter {
			return out[i].Waiter < out[j].Waiter
		}
		return out[i].Sender < out[j].Sender
	})
	return out
}

// FormatWaitMatrix renders the wait edges as a table, longest waits first.
func FormatWaitMatrix(edges []WaitEdge) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-8s %12s %8s\n", "waiter", "on", "blocked (s)", "ops")
	for _, e := range edges {
		sender := fmt.Sprintf("P%d", e.Sender)
		if e.Sender < 0 {
			sender = "-"
		}
		fmt.Fprintf(&b, "P%-7d %-8s %12.6f %8d\n", e.Waiter, sender, e.Blocked, e.Count)
	}
	return b.String()
}
