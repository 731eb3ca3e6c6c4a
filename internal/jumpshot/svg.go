package jumpshot

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/colors"
	"repro/internal/slog2"
)

// View controls a timeline rendering: the zoom viewport, canvas size, and
// the preview threshold beyond which a timeline degrades to Jumpshot's
// striped proportional rectangles.
type View struct {
	// From/To bound the viewport; both zero shows the whole log, and a
	// window of zero width is drawn over [From, From+1e-9].
	From, To float64
	// Width is the canvas width in pixels (default 1200).
	Width int
	// PreviewThreshold is the per-rank state count above which the rank is
	// drawn as striped previews instead of individual rectangles (default
	// 512, 0 = default; negative disables previews).
	PreviewThreshold int
	// Title is drawn above the canvas.
	Title string
	// RankOrder, when non-nil, selects and orders the timelines shown —
	// Jumpshot's "timeline cut and paste". Ranks not listed are dropped.
	RankOrder []int
	// Expand multiplies individual timeline heights — Jumpshot's
	// "vertical expansion of timelines". Missing entries default to 1.
	Expand map[int]int
	// Annotations overlays analyzer verdicts on the canvas: rank-scoped
	// markers pinned to their timeline at a timestamp, and banner chips
	// along the top margin for unscoped findings.
	Annotations []Annotation
}

// Annotation is one verdict marker (typically from internal/analyze).
type Annotation struct {
	// Rank anchors the marker to a timeline; negative means a banner
	// chip across the top margin instead.
	Rank int
	// Time positions rank-scoped markers on the axis.
	Time float64
	// Label is the short marker text; Detail goes into the hover popup.
	Label  string
	Detail string
}

const (
	rowHeight    = 36 // per-timeline height in pixels
	marginLeft   = 74
	marginTop    = 34
	marginBottom = 26
	marginRight  = 14
)

// wholeIfZero resolves a viewer's window against f: the zero window,
// [0, 0], stands for the whole log, any other for itself.
func wholeIfZero(f *slog2.File, from, to float64) (float64, float64) {
	if from == 0 && to == 0 {
		return f.Start, f.End
	}
	return from, to
}

func (v View) normalized(f *slog2.File) View {
	v.From, v.To = wholeIfZero(f, v.From, v.To)
	if v.To <= v.From {
		v.To = v.From + 1e-9
	}
	if v.Width <= 0 {
		v.Width = 1200
	}
	if v.PreviewThreshold == 0 {
		v.PreviewThreshold = 512
	}
	return v
}

// RenderSVG draws the log under the given view as a standalone SVG
// document on a dark canvas, Jumpshot-style: timelines per rank (rank 0 =
// PI_MAIN at the top), coloured state rectangles with nesting insets,
// yellow event bubbles, white message arrows, an axis in global seconds,
// and popup details as SVG tooltips.
func RenderSVG(f *slog2.File, v View) string {
	b := AppendSVG(nil, f, v)
	// b is this call's alone and never written again, so it becomes the
	// string as it is, as strings.Builder's bytes do, not through a
	// second copy of the document (24 MB on the benchmark's big log).
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// row is one rank's place on the canvas; mid is the row's centre line as
// arrows and events write it, formatted once.
type row struct {
	shown bool
	top   float64
	h     int
	mid   []byte
}

// layout is one render's geometry: the normalized view and, per rank,
// whether and where its timeline is drawn.
type layout struct {
	v     View
	plotW float64
	rows  []row // indexed by rank
}

func (l *layout) x(t float64) float64 {
	return float64(marginLeft) + l.plotW*(t-l.v.From)/(l.v.To-l.v.From)
}

func (l *layout) shown(rank int) bool { return uint(rank) < uint(len(l.rows)) && l.rows[rank].shown }

// catText is what a drawable needs of its category, resolved once per
// render instead of once per drawable.
type catText struct {
	hex  string
	name []byte // escaped
}

// Measured markup sizes, for sizing the document buffer from the
// drawable counts before the first append: an arrow whole, an event and
// a state without their category name and cargo, one rectangle of a
// preview bucket. An underestimate only costs a regrowth.
const (
	arrowBytes   = 248
	eventBytes   = 116
	stateBytes   = 184
	previewBytes = 96
)

// AppendSVG appends the document RenderSVG describes to dst. The text
// of every drawable is appended in place (no fmt, no intermediate
// strings) to a buffer sized from the drawable counts, so a render
// allocates the document once.
func AppendSVG(dst []byte, f *slog2.File, v View) []byte {
	v = v.normalized(f)
	arrows, events := f.Arrows(v.From, v.To), f.Events(v.From, v.To)

	// Decide which ranks to draw and in what order (timeline cut/paste),
	// and take their states straight from the frames.
	var ranks []int
	var want []bool // the ranks RankOrder keeps; nil when it keeps all
	if v.RankOrder != nil {
		want = make([]bool, f.NumRanks)
		for _, r := range v.RankOrder {
			if r >= 0 && r < f.NumRanks {
				ranks = append(ranks, r)
				want[r] = true
			}
		}
	}
	byRank := statesByRank(f, f.States(v.From, v.To), want)
	if v.RankOrder == nil {
		for r := range f.NumRanks {
			ranks = append(ranks, r)
		}
	}
	// Per-timeline heights (vertical expansion) and row layout.
	l := &layout{v: v, rows: make([]row, f.NumRanks)}
	y := marginTop
	for _, r := range ranks {
		h := rowHeight * max(v.Expand[r], 1)
		l.rows[r] = row{shown: true, top: float64(y), h: h, mid: appendFixed(nil, float64(y)+float64(h)/2, 1)}
		y += h
	}
	width := v.Width
	height := y + marginBottom
	l.plotW = float64(width - marginLeft - marginRight)

	cats := make([]catText, len(f.Categories))
	for i, c := range f.Categories {
		cats[i] = catText{hex: hexOf(c.Color), name: appendEsc(nil, c.Name)}
	}

	size := 4096 + arrowBytes*len(arrows)
	for i := range events {
		size += eventBytes + len(cats[events[i].D.Cat].name) + len(events[i].D.Cargo)
	}
	for _, r := range ranks {
		if l.preview(len(byRank[r])) {
			size += previewBytes * previewBuckets(l.plotW) * 4
			continue
		}
		for _, s := range byRank[r] {
			size += stateBytes + len(cats[s.D.Cat].name) + len(s.D.StartCargo)
		}
	}
	m := markup(slices.Grow(dst, size))

	m.f(`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="11">`+"\n", width, height)
	m.f(`<rect width="%d" height="%d" fill="#101010"/>`+"\n", width, height)
	if v.Title != "" {
		m.f(`<text x="%d" y="16" fill="#e0e0e0" font-size="13">%s</text>`+"\n", marginLeft, esc(v.Title))
	}

	// Row separators and labels.
	for _, r := range ranks {
		y := l.rows[r].top
		m.f(`<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#303030"/>`+"\n",
			marginLeft, y, width-marginRight, y)
		m.f(`<text x="6" y="%.1f" fill="#c0c0c0">%s</text>`+"\n", y+float64(l.rows[r].h)/2+4, rankLabel(r))
	}

	// Axis ticks.
	for i := 0; i <= 8; i++ {
		t := v.From + (v.To-v.From)*float64(i)/8
		x := l.x(t)
		m.f(`<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="#404040"/>`+"\n",
			x, marginTop, x, height-marginBottom)
		m.f(`<text x="%.1f" y="%d" fill="#909090" text-anchor="middle">%.4gs</text>`+"\n",
			x, height-8, t)
	}

	// States per rank, individually or as striped previews.
	for _, r := range ranks {
		rs := byRank[r]
		if len(rs) == 0 {
			continue
		}
		if l.preview(len(rs)) {
			m.previewRow(l, cats, rs, r)
			continue
		}
		m.stateRow(l, cats, rs, r)
	}

	// Arrows: white, drawn over states, with the popup the paper lists.
	hex := colors.ArrowColor.Hex()
	for i := range arrows {
		if a := arrows[i].D; l.shown(a.SrcRank) && l.shown(a.DstRank) {
			m.arrow(l, hex, a)
		}
	}

	// Event bubbles on top.
	for i := range events {
		if e := events[i].D; l.shown(e.Rank) {
			m.event(l, &cats[e.Cat], e)
		}
	}

	// Verdict annotations over everything else, so findings land where
	// the viewer is already looking.
	m.annotations(l, width)

	m.inlineLegend(f, cats, width, height)
	return *m.s("</svg>\n")
}

// rankLabel names a timeline as the paper's figures do: PI_MAIN for
// rank 0, P<rank> for the rest.
func rankLabel(r int) string {
	if r == 0 {
		return "PI_MAIN"
	}
	return "P" + strconv.Itoa(r)
}

// preview reports whether a rank with n states in the viewport is drawn
// as striped previews.
func (l *layout) preview(n int) bool {
	return l.v.PreviewThreshold > 0 && n > l.v.PreviewThreshold
}

// markup is the document being appended to. Its piece methods append
// one thing each and chain, so a drawable's markup reads like the format
// string it replaced while costing no fmt call and no string.
type markup []byte

// s and raw append text as it is; esc appends it with the four
// XML-special bytes replaced by their entities.
func (m *markup) s(text string) *markup   { *m = append(*m, text...); return m }
func (m *markup) raw(text []byte) *markup { *m = append(*m, text...); return m }
func (m *markup) esc(text string) *markup { *m = appendEsc(*m, text); return m }

// f1, f6 and d are fmt's %.1f, %.6f and %d.
func (m *markup) f1(x float64) *markup { *m = appendFixed(*m, x, 1); return m }
func (m *markup) f6(x float64) *markup { *m = appendFixed(*m, x, 6); return m }
func (m *markup) d(n int) *markup      { *m = strconv.AppendInt(*m, int64(n), 10); return m }

// f is fmt itself, for the parts of the document that come once per
// render or per rank, not per drawable.
func (m *markup) f(format string, args ...any) { *m = fmt.Appendf(*m, format, args...) }

func (m *markup) arrow(l *layout, hex string, a *slog2.Arrow) {
	var buf [24]byte
	x2, y2 := appendFixed(buf[:0], l.x(a.End), 1), l.rows[a.DstRank].mid
	m.s(`<g><line x1="`).f1(l.x(a.Start)).s(`" y1="`).raw(l.rows[a.SrcRank].mid).s(`" x2="`).raw(x2).s(`" y2="`).raw(y2).
		s(`" stroke="`).s(hex).s(`" stroke-width="1"/>`).
		s(`<circle cx="`).raw(x2).s(`" cy="`).raw(y2).s(`" r="1.6" fill="`).s(hex).s(`"/>`).
		s(`<title>message P`).d(a.SrcRank).s(`-&gt;P`).d(a.DstRank).
		s(` start: `).f6(a.Start).s(` end: `).f6(a.End).s(` dur: `).f6(a.End - a.Start).
		s(` tag: `).d(a.Tag).s(` size: `).d(a.Size).s("</title></g>\n")
}

func (m *markup) event(l *layout, cat *catText, e *slog2.Event) {
	m.s(`<g><circle cx="`).f1(l.x(e.Time)).s(`" cy="`).raw(l.rows[e.Rank].mid).
		s(`" r="2.6" fill="`).s(cat.hex).s(`" stroke="#806000"/>`).
		s(`<title>`).raw(cat.name).s(` t: `).f6(e.Time).s(` `).esc(e.Cargo).s("</title></g>\n")
}

// annotations draws verdict markers: an orange flag plus a dashed drop
// line on the annotated rank's timeline, or a banner chip in the top
// margin when the finding is not scoped to a rank.
func (m *markup) annotations(l *layout, width int) {
	hex := colors.FaultEventColor.Hex()
	bannerX := marginLeft
	for _, a := range l.v.Annotations {
		if a.Rank < 0 {
			if bannerX > width-160 {
				continue // out of banner room; remaining chips are in the report anyway
			}
			m.s(`<g><rect x="`).d(bannerX).s(`" y="19" width="9" height="9" fill="`).s(hex).s(`"/>`).
				s(`<text x="`).d(bannerX + 12).s(`" y="27" fill="`).s(hex).s(`">`).esc(a.Label).s(`</text>`).
				s(`<title>`).esc(a.Detail).s("</title></g>\n")
			bannerX += 13 + 7*len(a.Label) + 12
			continue
		}
		if !l.shown(a.Rank) {
			continue
		}
		x := l.x(clampF(a.Time, l.v.From, l.v.To))
		top := l.rows[a.Rank].top
		bot := top + float64(l.rows[a.Rank].h)
		m.s(`<g><line x1="`).f1(x).s(`" y1="`).f1(top).s(`" x2="`).f1(x).s(`" y2="`).f1(bot).
			s(`" stroke="`).s(hex).s(`" stroke-dasharray="3,2"/>`).
			s(`<path d="M `).f1(x).s(` `).f1(top).s(` L `).f1(x + 8).s(` `).f1(top + 3).
			s(` L `).f1(x).s(` `).f1(top + 7).s(` Z" fill="`).s(hex).s(`"/>`).
			s(`<text x="`).f1(x + 10).s(`" y="`).f1(top + 10).s(`" fill="`).s(hex).s(`">`).esc(a.Label).s(`</text>`).
			s(`<title>`).esc(a.Detail).s("</title></g>\n")
	}
}

// outermostFirst orders one rank's states, given in start order
// (SortRefs), so that at equal starts the longer (enclosing) one comes
// first; states equal in both keep the order they came in. Each run of
// equal starts is sorted by SortRefs again, on the negated end.
func outermostFirst(rs []slog2.Ref[*slog2.State]) {
	for i := 0; i < len(rs); {
		j := i + 1
		for j < len(rs) && rs[j].At == rs[i].At {
			j++
		}
		if run := rs[i:j]; len(run) > 1 {
			for k := range run {
				run[k].At = -run[k].D.End
			}
			slog2.SortRefs(run)
			for k := range run {
				run[k].At = run[k].D.Start
			}
		}
		i = j
	}
}

// statesByRank deals the states of all, one States query in start order,
// out to their ranks in that order, each rank outermostFirst. A non-nil
// want keeps only the ranks it marks.
func statesByRank(f *slog2.File, all []slog2.Ref[*slog2.State], want []bool) [][]slog2.Ref[*slog2.State] {
	keep := func(s *slog2.State) bool {
		return uint(s.Rank) < uint(f.NumRanks) && (want == nil || want[s.Rank])
	}
	counts := make([]int, f.NumRanks)
	n := 0
	for _, r := range all {
		if keep(r.D) {
			counts[r.D.Rank]++
			n++
		}
	}
	byRank := make([][]slog2.Ref[*slog2.State], f.NumRanks)
	dealt := make([]slog2.Ref[*slog2.State], n)
	for r, c := range counts {
		byRank[r], dealt = dealt[:0:c], dealt[c:]
	}
	for _, r := range all {
		if keep(r.D) {
			byRank[r.D.Rank] = append(byRank[r.D.Rank], r)
		}
	}
	for _, rs := range byRank {
		outermostFirst(rs)
	}
	return byRank
}

// nesting walks one rank's states, fed in statesByRank order, through the
// stack of states still open: the one nesting that the timeline's insets,
// the preview's exclusive time and the legend's excl all read.
type nesting struct{ open []*slog2.State }

// enter steps the walk onto s. The states that end at or before s starts
// close; depth is how many stay open around it, and parent is the
// innermost of them when s ends inside it, else nil (a partial overlap
// has a depth and no parent).
func (n *nesting) enter(s *slog2.State) (depth int, parent *slog2.State) {
	for len(n.open) > 0 && n.open[len(n.open)-1].End <= s.Start {
		n.open = n.open[:len(n.open)-1]
	}
	depth = len(n.open)
	if depth > 0 && s.End <= n.open[depth-1].End {
		parent = n.open[depth-1]
	}
	n.open = append(n.open, s)
	return depth, parent
}

// stateRow draws one rank's states as nested rectangles: outer states
// first, each nesting level inset vertically, exactly how Jumpshot shows
// "state B fully nested within A ... as another rectangle within A".
func (m *markup) stateRow(l *layout, cats []catText, rs []slog2.Ref[*slog2.State], rank int) {
	top, rowHeight := l.rows[rank].top, l.rows[rank].h
	var walk nesting
	var levels []level // by nesting depth
	for _, r := range rs {
		s := r.D
		depth, _ := walk.enter(s)
		for len(levels) <= depth {
			inset := min(float64(len(levels)*4), float64(rowHeight)/2-4)
			levels = append(levels, newLevel(top+3+inset, max(float64(rowHeight)-6-2*inset, 2)))
		}
		x1, x2 := l.x(clampF(s.Start, l.v.From, l.v.To)), l.x(clampF(s.End, l.v.From, l.v.To))
		m.state(&cats[s.Cat], s, x1, max(x2-x1, 0.5), &levels[depth])
	}
}

// level is the y and height of every state rectangle at one nesting depth
// of a row, formatted once: what rect writes after x and after the width.
type level struct{ y, h []byte }

func newLevel(y, h float64) level {
	var m markup
	m.s(`" y="`).f1(y).s(`" width="`)
	at := len(m)
	m.s(`" height="`).f1(h)
	return level{y: m[:at:at], h: m[at:]}
}

func (m *markup) state(cat *catText, s *slog2.State, x, w float64, lv *level) {
	m.s(`<g><rect x="`).f1(x).raw(lv.y).f1(w).raw(lv.h).
		s(`" fill="`).s(cat.hex).s(`" stroke="#000000" stroke-width="0.4"/>`).
		s(`<title>`).raw(cat.name).s(` start: `).f6(s.Start).s(` end: `).f6(s.End).
		s(` dur: `).f6(s.Duration()).s(` `).esc(s.StartCargo).s("</title></g>\n")
}

// rect appends open (a tag up to `x="`) and the rectangle's geometry, up
// to the closing quote of its height.
func (m *markup) rect(open string, x, y, w, h float64) *markup {
	return m.s(open).f1(x).s(`" y="`).f1(y).s(`" width="`).f1(w).s(`" height="`).f1(h)
}

// previewBuckets is how many 10-pixel preview buckets span the plot.
func previewBuckets(plotW float64) int {
	const bucketPx = 10.0
	n := int(plotW / bucketPx)
	if n < 1 {
		n = 1
	}
	return n
}

// previewRow draws one rank's states as Jumpshot's zoomed-out preview:
// outline rectangles per bucket containing horizontal stripes whose
// thicknesses "indicate the relative proportions of each colour within
// that interval".
func (m *markup) previewRow(l *layout, cats []catText, rs []slog2.Ref[*slog2.State], rank int) {
	v := l.v
	plotW := l.x(v.To) - l.x(v.From)
	nBuckets := previewBuckets(plotW)
	span := (v.To - v.From) / float64(nBuckets)
	// Per bucket, per category, exclusive (innermost-wins) state time, so
	// the stripes show the proportions a viewer actually perceives.
	bs := exclusiveBuckets(rs, v.From, span, nBuckets, len(cats))
	top := l.rows[rank].top
	rowH := float64(l.rows[rank].h) - 6
	for bi := range nBuckets {
		times, in := bs.bucket(bi)
		var total float64 // in category order: the stripes are a function of the file
		for _, d := range times {
			total += d
		}
		if total <= 0 {
			continue
		}
		x := l.x(v.From + float64(bi)*span)
		w := plotW / float64(nBuckets)
		m.rect(`<rect x="`, x, top+3, w, rowH).s(`" fill="none" stroke="#707070" stroke-width="0.5"/>` + "\n")
		y := top + 3.0
		for c, d := range times {
			if !in[c] {
				continue
			}
			h := rowH * (d / total)
			m.rect(`<rect x="`, x, y, w, h).s(`" fill="`).s(cats[c].hex).s(`"/>` + "\n")
			y += h
		}
	}
}

// inlineLegend draws colour swatches along the bottom margin.
func (m *markup) inlineLegend(f *slog2.File, cats []catText, width, height int) {
	x := marginLeft
	y := height - 8
	for i, c := range f.Categories {
		if c.Kind != slog2.KindState {
			continue
		}
		if x > width-140 {
			break
		}
		m.f(`<rect x="%d" y="%d" width="9" height="9" fill="%s"/>`, x, y-9, cats[i].hex)
		m.f(`<text x="%d" y="%d" fill="#909090">%s</text>`+"\n", x+12, y, cats[i].name)
		x += 13 + 7*len(c.Name) + 10
	}
}

// palette is the colour plan's named colours, for hexOf.
var palette = [...]colors.Color{colors.Red, colors.Green, colors.ForestGreen,
	colors.DarkGreen, colors.IndianRed, colors.Firebrick, colors.Salmon,
	colors.Bisque, colors.Gray, colors.Yellow, colors.White,
	colors.Orange, colors.Magenta}

// hexOf maps a colour name from the log to a hex value via the palette,
// falling back to the name itself (SVG understands X11 names).
func hexOf(name string) string {
	for i := range palette {
		if palette[i].Name == name {
			return palette[i].Hex()
		}
	}
	return name
}

func clampF(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// appendEsc appends s with the four XML-special bytes replaced by their
// entities; text without any is one copy.
func appendEsc(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		var ent string
		switch s[i] {
		case '&':
			ent = "&amp;"
		case '<':
			ent = "&lt;"
		case '>':
			ent = "&gt;"
		case '"':
			ent = "&quot;"
		default:
			continue
		}
		b = append(b, s[last:i]...)
		b = append(b, ent...)
		last = i + 1
	}
	return append(b, s[last:]...)
}

// esc is appendEsc for callers that build strings.
func esc(s string) string {
	if !strings.ContainsAny(s, `&<>"`) {
		return s
	}
	return string(appendEsc(nil, s))
}
