package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"strconv"

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
// ends before it starts does, and both are refused.
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
	if hi < lo || math.IsInf(lo, 1) || math.IsInf(hi, -1) {
		return fmt.Errorf("serve: empty time window [%g,%g]", lo, hi)
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

// Tile JSON DTOs: the wire schema, decoupled from the slog2 structs.
type tileStateJSON struct {
	Rank  int     `json:"rank"`
	Cat   int     `json:"cat"`
	Start float64 `json:"t0"`
	End   float64 `json:"t1"`
	Cargo string  `json:"cargo,omitempty"`
}

type tileArrowJSON struct {
	Src   int     `json:"src"`
	Dst   int     `json:"dst"`
	Start float64 `json:"t0"`
	End   float64 `json:"t1"`
	Tag   int     `json:"tag"`
	Size  int     `json:"size"`
}

type tileEventJSON struct {
	Rank  int     `json:"rank"`
	Cat   int     `json:"cat"`
	Time  float64 `json:"t"`
	Cargo string  `json:"cargo,omitempty"`
}

type tileJSON struct {
	Trace  string          `json:"trace"`
	T0     float64         `json:"t0"`
	T1     float64         `json:"t1"`
	RankLo int             `json:"r0"`
	RankHi int             `json:"r1"`
	States []tileStateJSON `json:"states"`
	Arrows []tileArrowJSON `json:"arrows"`
	Events []tileEventJSON `json:"events"`
}

// RenderTileJSON fetches the tile's drawables via the frame tree and
// marshals them. Exported so tests and the smoke client can byte-compare
// a served tile against a direct render.
func RenderTileJSON(tr *Trace, win jumpshot.Window) ([]byte, error) {
	states, arrows, events := jumpshot.Tile(tr.File, win)
	out := tileJSON{
		Trace: tr.ID, T0: win.T0, T1: win.T1, RankLo: win.RankLo, RankHi: win.RankHi,
		States: make([]tileStateJSON, 0, len(states)),
		Arrows: make([]tileArrowJSON, 0, len(arrows)),
		Events: make([]tileEventJSON, 0, len(events)),
	}
	for _, s := range states {
		out.States = append(out.States, tileStateJSON{
			Rank: s.Rank, Cat: s.Cat, Start: s.Start, End: s.End, Cargo: s.StartCargo,
		})
	}
	for _, a := range arrows {
		out.Arrows = append(out.Arrows, tileArrowJSON{
			Src: a.SrcRank, Dst: a.DstRank, Start: a.Start, End: a.End, Tag: a.Tag, Size: a.Size,
		})
	}
	for _, e := range events {
		out.Events = append(out.Events, tileEventJSON{
			Rank: e.Rank, Cat: e.Cat, Time: e.Time, Cargo: e.Cargo,
		})
	}
	return json.Marshal(out)
}

// RenderTileSVG renders the tile as an SVG document via the jumpshot
// renderer, rank-windowed through View.RankOrder; zoom picks the raster
// width (512px at zoom 0, doubling per level).
func RenderTileSVG(tr *Trace, win jumpshot.Window, zoom int) []byte {
	v := jumpshot.View{
		From: win.T0, To: win.T1,
		Width:     tileBaseWidth << zoom,
		RankOrder: jumpshot.TileRankOrder(tr.File, win),
		Title:     fmt.Sprintf("%s [%.6g, %.6g]", tr.ID, win.T0, win.T1),
	}
	return jumpshot.AppendSVG(nil, tr.File, v)
}

// renderTile dispatches on format and returns (body, content type).
func renderTile(tr *Trace, p tileParams) ([]byte, string, error) {
	if p.format == "svg" {
		return RenderTileSVG(tr, p.win, p.zoom), "image/svg+xml; charset=utf-8", nil
	}
	body, err := RenderTileJSON(tr, p.win)
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
