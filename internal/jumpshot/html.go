package jumpshot

import (
	"fmt"
	"strings"

	"repro/internal/slog2"
)

// RenderHTML wraps the timeline SVG in a self-contained interactive page:
// wheel to zoom around the cursor, drag to scroll — Jumpshot's "seamless
// scrolling at any zoom level of an entire logfile plus dragged-zoom,
// grasp and scroll" without a Java runtime. The page also embeds the
// legend table (with its count/incl/excl statistics) and any conversion
// warnings. Pure stdlib output: one .html file, no external assets.
func RenderHTML(f *slog2.File, v View) string {
	v = v.normalized(f)
	svg := AppendSVG(nil, f, v)
	legend := Legend(f, v.From, v.To)
	SortLegend(legend, "incl")

	var b strings.Builder
	b.WriteString(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>`)
	b.WriteString(esc(pageTitle(v)))
	b.WriteString(`</title>
<style>
body { background:#181818; color:#d0d0d0; font-family:monospace; margin:1em; }
#viewport { overflow:hidden; border:1px solid #333; cursor:grab; }
#viewport:active { cursor:grabbing; }
table { border-collapse:collapse; margin-top:1em; }
td, th { border:1px solid #333; padding:2px 8px; text-align:right; }
td:first-child, th:first-child { text-align:left; }
.swatch { display:inline-block; width:10px; height:10px; margin-right:4px; }
.warn { color:#e0a000; }
h2 { font-size:14px; }
</style></head><body>
<h2>`)
	b.WriteString(esc(pageTitle(v)))
	b.WriteString(`</h2>
<p>wheel: zoom around cursor &middot; drag: scroll &middot; double-click: reset &middot; hover: popups</p>
<div id="viewport">`)
	b.Write(svg)
	b.WriteString(`</div>
<script>
(function() {
  const vp = document.getElementById('viewport');
  const svg = vp.querySelector('svg');
  const w = parseFloat(svg.getAttribute('width'));
  const h = parseFloat(svg.getAttribute('height'));
  svg.setAttribute('viewBox', '0 0 ' + w + ' ' + h);
  svg.removeAttribute('width'); svg.removeAttribute('height');
  svg.style.width = '100%';
  let vb = {x: 0, y: 0, w: w, h: h};
  const apply = () => svg.setAttribute('viewBox', vb.x+' '+vb.y+' '+vb.w+' '+vb.h);
  vp.addEventListener('wheel', e => {
    e.preventDefault();
    const r = svg.getBoundingClientRect();
    const fx = (e.clientX - r.left) / r.width;
    const scale = e.deltaY > 0 ? 1.2 : 1/1.2;
    const nw = Math.min(w, Math.max(w/4096, vb.w * scale));
    vb.x = Math.max(0, Math.min(w - nw, vb.x + (vb.w - nw) * fx));
    vb.w = nw;
    apply();
  }, {passive: false});
  let drag = null;
  vp.addEventListener('mousedown', e => { drag = {x: e.clientX, vx: vb.x}; });
  window.addEventListener('mousemove', e => {
    if (!drag) return;
    const r = svg.getBoundingClientRect();
    vb.x = Math.max(0, Math.min(w - vb.w, drag.vx - (e.clientX - drag.x) * vb.w / r.width));
    apply();
  });
  window.addEventListener('mouseup', () => { drag = null; });
  vp.addEventListener('dblclick', () => { vb = {x: 0, y: 0, w: w, h: h}; apply(); });
})();
</script>
<h2>legend</h2>
<table><tr><th>name</th><th>kind</th><th>count</th><th>incl (s)</th><th>excl (s)</th></tr>
`)
	for _, e := range legend {
		kind := "state"
		incl := fmt.Sprintf("%.6f", e.Incl)
		excl := fmt.Sprintf("%.6f", e.Excl)
		if e.Kind == slog2.KindEvent {
			kind, incl, excl = "event", "-", "-"
		}
		fmt.Fprintf(&b, `<tr><td><span class="swatch" style="background:%s"></span>%s</td><td>%s</td><td>%d</td><td>%s</td><td>%s</td></tr>`+"\n",
			hexOf(e.Color), esc(e.Name), kind, e.Count, incl, excl)
	}
	b.WriteString("</table>\n")
	if len(f.Warnings) > 0 {
		b.WriteString("<h2>conversion warnings</h2>\n<ul>\n")
		for _, wmsg := range f.Warnings {
			fmt.Fprintf(&b, `<li class="warn">%s</li>`+"\n", esc(wmsg))
		}
		b.WriteString("</ul>\n")
	}
	b.WriteString("</body></html>\n")
	return b.String()
}

func pageTitle(v View) string {
	if v.Title != "" {
		return v.Title
	}
	return "Pilot visual log"
}
