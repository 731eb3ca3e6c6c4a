package jumpshot

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/slog2"
)

// RenderStatsSVG draws the duration-statistics view as a horizontal
// stacked-bar chart, one bar per rank, segment widths proportional to the
// category time fractions within [t0, t1] — Jumpshot's "picture from
// user-selected duration", which makes load imbalance across processes
// visible at a glance.
func RenderStatsSVG(f *slog2.File, t0, t1 float64, title string) string {
	stats := Stats(f, t0, t1)
	const (
		width   = 900
		barH    = 22
		gap     = 6
		left    = 74
		topPad  = 40
		botPad  = 40
		plotWpx = width - left - 30
	)
	height := topPad + len(stats)*(barH+gap) + botPad

	present := map[int]bool{}
	for _, rs := range stats {
		for cat := range rs.Time {
			present[cat] = true
		}
	}
	var cats []int
	for cat := range present {
		cats = append(cats, cat)
	}
	sort.Ints(cats)

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="11">`+"\n", width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="#101010"/>`+"\n", width, height)
	if title == "" {
		title = fmt.Sprintf("duration statistics [%.6f, %.6f]s", t0, t1)
	}
	fmt.Fprintf(&b, `<text x="%d" y="18" fill="#e0e0e0" font-size="13">%s</text>`+"\n", left, esc(title))

	// Percentage grid.
	for pct := 0; pct <= 100; pct += 25 {
		x := float64(left) + float64(plotWpx)*float64(pct)/100
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="#303030"/>`+"\n",
			x, topPad-6, x, height-botPad+6)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" fill="#909090" text-anchor="middle">%d%%</text>`+"\n",
			x, height-botPad+20, pct)
	}

	for i, rs := range stats {
		y := topPad + i*(barH+gap)
		fmt.Fprintf(&b, `<text x="6" y="%d" fill="#c0c0c0">%s</text>`+"\n", y+barH-6, rankLabel(rs.Rank))
		x := float64(left)
		for _, cat := range cats {
			frac := rs.Fraction[cat]
			if frac <= 0 {
				continue
			}
			w := float64(plotWpx) * frac
			fmt.Fprintf(&b, `<g><rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s" stroke="#000" stroke-width="0.4"/>`,
				x, y, w, barH, hexOf(f.Categories[cat].Color))
			fmt.Fprintf(&b, `<title>%s: %.1f%% (%0.6fs)</title></g>`+"\n",
				esc(f.Categories[cat].Name), frac*100, rs.Time[cat])
			x += w
		}
	}

	// Legend swatches.
	x := left
	ly := height - 10
	for _, cat := range cats {
		name := f.Categories[cat].Name
		if x > width-140 {
			break
		}
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="9" height="9" fill="%s"/>`, x, ly-9, hexOf(f.Categories[cat].Color))
		fmt.Fprintf(&b, `<text x="%d" y="%d" fill="#909090">%s</text>`+"\n", x+12, ly, esc(name))
		x += 13 + 7*len(name) + 10
	}
	b.WriteString("</svg>\n")
	return b.String()
}
