package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"strconv"

	"repro/internal/idx"
	"repro/internal/jumpshot"
	"repro/internal/slog2"
)

// tileParams is one parsed tile query: the time×rank window, the zoom
// level (raster width for SVG tiles), and the output format.
type tileParams struct {
	win    jumpshot.Window
	zoom   int
	format string // "json" or "svg"
}

const (
	// tileBaseWidth is the SVG pixel width at zoom 0; each zoom level
	// doubles it.
	tileBaseWidth = 512
	maxZoom       = 6
)

// queryFloat parses q's optional float parameter key into *dst, which
// keeps its value when the parameter is absent. NaN is refused with the
// unparseable: it poisons window math and compares false with everything.
func queryFloat(q url.Values, key string, dst *float64) error {
	s := q.Get(key)
	if s == "" {
		return nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) {
		return fmt.Errorf("serve: bad %s=%q", key, s)
	}
	*dst = v
	return nil
}

// queryWindow parses the optional t0 and t1 parameters over the route's
// own unbounded window, which the caller passes in: the file's span for a
// tile or a legend, [-Inf, +Inf] for a profile or a verdict. An infinite
// bound on its own side (t0=-Inf, t1=+Inf) asks for no bound and leaves
// that default; on the wrong side it selects nothing, as a window that
// ends before it starts does, and both are refused (idx.CheckWindow).
func queryWindow(q url.Values, t0, t1 *float64) error {
	lo, hi := *t0, *t1
	if err := queryFloat(q, "t0", &lo); err != nil {
		return err
	}
	if err := queryFloat(q, "t1", &hi); err != nil {
		return err
	}
	if math.IsInf(lo, -1) {
		lo = *t0
	}
	if math.IsInf(hi, 1) {
		hi = *t1
	}
	if err := idx.CheckWindow(lo, hi); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	*t0, *t1 = lo, hi
	return nil
}

// parseTileParams reads t0/t1/r0/r1/zoom/format from the query,
// defaulting to the whole log, all ranks, zoom 0, JSON. Hostile or
// nonsensical values come back as errors for a 400, never a panic.
func parseTileParams(q url.Values, f *slog2.File) (tileParams, error) {
	p := tileParams{
		win:    jumpshot.Window{T0: f.Start, T1: f.End, RankLo: 0, RankHi: -1},
		format: "json",
	}
	getI := func(key string, dst *int) error {
		s := q.Get(key)
		if s == "" {
			return nil
		}
		v, err := strconv.Atoi(s)
		if err != nil {
			return fmt.Errorf("serve: bad %s=%q", key, s)
		}
		*dst = v
		return nil
	}
	if err := queryWindow(q, &p.win.T0, &p.win.T1); err != nil {
		return p, err
	}
	if err := getI("r0", &p.win.RankLo); err != nil {
		return p, err
	}
	if err := getI("r1", &p.win.RankHi); err != nil {
		return p, err
	}
	if err := getI("zoom", &p.zoom); err != nil {
		return p, err
	}
	if p.zoom < 0 || p.zoom > maxZoom {
		return p, fmt.Errorf("serve: zoom %d outside [0,%d]", p.zoom, maxZoom)
	}
	if p.win.RankLo < 0 {
		return p, fmt.Errorf("serve: r0 %d negative", p.win.RankLo)
	}
	switch fm := q.Get("format"); fm {
	case "", "json":
		p.format = "json"
	case "svg":
		p.format = "svg"
	default:
		return p, fmt.Errorf("serve: unknown format %q", fm)
	}
	return p, nil
}

// cacheKey identifies one rendered tile: trace identity+generation
// crossed with every parameter that affects the bytes. The window's
// bounds are written shortest-exact, so two windows share a key only
// when they are the same window.
func (p tileParams) cacheKey(tr *Trace) string {
	b := make([]byte, 0, 96+len(tr.ID)+len(tr.Gen))
	b = append(b, "tile\x00"...)
	b = append(b, tr.ID...)
	b = append(b, 0)
	b = append(b, tr.Gen...)
	b = append(b, 0)
	b = append(b, p.format...)
	b = append(b, "|t0="...)
	b = strconv.AppendFloat(b, p.win.T0, 'g', -1, 64)
	b = append(b, "|t1="...)
	b = strconv.AppendFloat(b, p.win.T1, 'g', -1, 64)
	b = append(b, "|r0="...)
	b = strconv.AppendInt(b, int64(p.win.RankLo), 10)
	b = append(b, "|r1="...)
	b = strconv.AppendInt(b, int64(p.win.RankHi), 10)
	b = append(b, "|z="...)
	b = strconv.AppendInt(b, int64(p.zoom), 10)
	return string(b)
}

// RenderTileJSON fetches the tile's drawables via the frame tree and
// writes them as JSON. Exported so tests and the smoke client can
// byte-compare a served tile against a direct render.
func RenderTileJSON(tr *Trace, win jumpshot.Window) ([]byte, error) {
	return appendTileJSON(nil, tr, win)
}

// appendTileJSON appends the tile's JSON to dst, byte for byte what
// encoding/json made of the wire schema it replaced:
//
//	{"trace","t0","t1","r0","r1",
//	 "states":[{"rank","cat","t0","t1","cargo" (omitted when empty)}],
//	 "arrows":[{"src","dst","t0","t1","tag","size"}],
//	 "events":[{"rank","cat","t","cargo" (omitted when empty)}]}
//
// A NaN or infinite time is an error, as it was for encoding/json; dst
// comes back as it was passed.
func appendTileJSON(dst []byte, tr *Trace, win jumpshot.Window) ([]byte, error) {
	states, arrows, events := jumpshot.Tile(tr.File, win)
	j := jsonAppender{b: dst}
	j.lit(`{"trace":`).str(tr.ID)
	j.lit(`,"t0":`).float(win.T0)
	j.lit(`,"t1":`).float(win.T1)
	j.lit(`,"r0":`).int(win.RankLo)
	j.lit(`,"r1":`).int(win.RankHi)
	j.lit(`,"states":[`)
	for i := range states {
		s := &states[i]
		j.item(i, `{"rank":`).int(s.Rank)
		j.lit(`,"cat":`).int(s.Cat)
		j.lit(`,"t0":`).float(s.Start)
		j.lit(`,"t1":`).float(s.End)
		if s.StartCargo != "" {
			j.lit(`,"cargo":`).str(s.StartCargo)
		}
		j.lit(`}`)
	}
	j.lit(`],"arrows":[`)
	for i := range arrows {
		a := &arrows[i]
		j.item(i, `{"src":`).int(a.SrcRank)
		j.lit(`,"dst":`).int(a.DstRank)
		j.lit(`,"t0":`).float(a.Start)
		j.lit(`,"t1":`).float(a.End)
		j.lit(`,"tag":`).int(a.Tag)
		j.lit(`,"size":`).int(a.Size)
		j.lit(`}`)
	}
	j.lit(`],"events":[`)
	for i := range events {
		e := &events[i]
		j.item(i, `{"rank":`).int(e.Rank)
		j.lit(`,"cat":`).int(e.Cat)
		j.lit(`,"t":`).float(e.Time)
		if e.Cargo != "" {
			j.lit(`,"cargo":`).str(e.Cargo)
		}
		j.lit(`}`)
	}
	j.lit(`]}`)
	if j.err != nil {
		return dst, j.err
	}
	return j.b, nil
}

// jsonAppender writes JSON values the way encoding/json does, with the
// first error sticky.
type jsonAppender struct {
	b   []byte
	err error
}

// lit appends literal JSON: punctuation and key names.
func (j *jsonAppender) lit(s string) *jsonAppender {
	j.b = append(j.b, s...)
	return j
}

// item appends the i-th array element's opening, after a comma unless
// it is the first.
func (j *jsonAppender) item(i int, s string) *jsonAppender {
	if i > 0 {
		j.b = append(j.b, ',')
	}
	return j.lit(s)
}

func (j *jsonAppender) int(v int) {
	j.b = strconv.AppendInt(j.b, int64(v), 10)
}

// float is encoding/json's float64 rule: shortest 'f', or 'e' below 1e-6
// and from 1e21 up with a two-digit negative exponent cut to one digit
// (1e-07 → 1e-7). NaN and ±Inf have no JSON form.
func (j *jsonAppender) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if j.err == nil {
			j.err = fmt.Errorf("serve: tile time %v has no JSON form", f)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	j.b = strconv.AppendFloat(j.b, f, format, -1, 64)
	if n := len(j.b); format == 'e' && j.b[n-4] == 'e' && j.b[n-3] == '-' && j.b[n-2] == '0' {
		j.b[n-2] = j.b[n-1]
		j.b = j.b[:n-1]
	}
}

// str appends s quoted. Printable ASCII other than `"\<>&` needs no
// escape; anything else goes through encoding/json itself, so escaping
// (HTML-safe, U+2028, invalid UTF-8 as U+FFFD) stays the standard
// library's.
func (j *jsonAppender) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			j.b = append(j.b, q...)
			return
		}
	}
	j.b = append(j.b, '"')
	j.b = append(j.b, s...)
	j.b = append(j.b, '"')
}

// RenderTileSVG renders the tile as an SVG document via the jumpshot
// renderer, rank-windowed through View.RankOrder; zoom picks the raster
// width (512px at zoom 0, doubling per level).
func RenderTileSVG(tr *Trace, win jumpshot.Window, zoom int) []byte {
	return appendTileSVG(nil, tr, win, zoom)
}

func appendTileSVG(dst []byte, tr *Trace, win jumpshot.Window, zoom int) []byte {
	v := jumpshot.View{
		From: win.T0, To: win.T1,
		Width:     tileBaseWidth << zoom,
		RankOrder: jumpshot.TileRankOrder(tr.File, win),
		Title:     fmt.Sprintf("%s [%.6g, %.6g]", tr.ID, win.T0, win.T1),
	}
	return jumpshot.AppendSVG(dst, tr.File, v)
}

// renderTile appends the tile to dst in its format and returns it with
// its content type.
func renderTile(dst []byte, tr *Trace, p tileParams) ([]byte, string, error) {
	if p.format == "svg" {
		return appendTileSVG(dst, tr, p.win, p.zoom), "image/svg+xml; charset=utf-8", nil
	}
	body, err := appendTileJSON(dst, tr, p.win)
	return body, "application/json; charset=utf-8", err
}

// Legend JSON DTO.
type legendEntryJSON struct {
	Name  string  `json:"name"`
	Color string  `json:"color"`
	Kind  string  `json:"kind"`
	Count int     `json:"count"`
	Incl  float64 `json:"incl"`
	Excl  float64 `json:"excl"`
}

// RenderLegendJSON computes the legend table over [t0, t1] and
// marshals it.
func RenderLegendJSON(tr *Trace, t0, t1 float64) ([]byte, error) {
	entries := jumpshot.Legend(tr.File, t0, t1)
	out := make([]legendEntryJSON, 0, len(entries))
	for _, e := range entries {
		kind := "state"
		if e.Kind == slog2.KindEvent {
			kind = "event"
		}
		out = append(out, legendEntryJSON{
			Name: e.Name, Color: e.Color, Kind: kind,
			Count: e.Count, Incl: e.Incl, Excl: e.Excl,
		})
	}
	return json.Marshal(out)
}

// searchHitJSON is one /search result row.
type searchHitJSON struct {
	Kind   string  `json:"kind"`
	Name   string  `json:"name"`
	Rank   int     `json:"rank"`
	Start  float64 `json:"t0"`
	End    float64 `json:"t1"`
	Detail string  `json:"detail"`
}

// RenderSearchJSON wraps jumpshot.Search and marshals its hits.
func RenderSearchJSON(tr *Trace, opts jumpshot.SearchOptions) ([]byte, error) {
	hits := jumpshot.Search(tr.File, opts)
	out := make([]searchHitJSON, 0, len(hits))
	for _, h := range hits {
		out = append(out, searchHitJSON{
			Kind: h.Kind, Name: h.Name, Rank: h.Rank,
			Start: h.Start, End: h.End, Detail: h.Detail,
		})
	}
	return json.Marshal(out)
}
