package serve

import "net/http"

// handleViewer serves the embedded single-file browser viewer: pick a
// trace, pan/drag and wheel-zoom over SVG tiles fetched from the tile
// endpoint, with the legend table alongside — the Jumpshot experience
// over HTTP, no assets beyond this page.
func (s *Server) handleViewer(w http.ResponseWriter, r *http.Request) {
	s.writeBody(w, r, "text/html; charset=utf-8", viewerHTML)
}

var viewerHTML = []byte(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>pilot-serve</title>
<style>
body { background:#181818; color:#d0d0d0; font-family:monospace; margin:1em; }
a { color:#7ab7ff; }
select, button { background:#282828; color:#d0d0d0; border:1px solid #444; font-family:monospace; padding:2px 6px; }
#tile { border:1px solid #333; margin-top:0.6em; min-height:200px; cursor:grab; user-select:none; }
#tile:active { cursor:grabbing; }
table { border-collapse:collapse; margin-top:1em; }
td, th { border:1px solid #333; padding:2px 8px; text-align:right; }
td:first-child, th:first-child { text-align:left; }
.swatch { display:inline-block; width:10px; height:10px; margin-right:4px; }
#status { color:#909090; margin-left:1em; }
h2 { font-size:14px; }
</style></head><body>
<h2>pilot-serve — SLOG-2 trace tiles</h2>
<div>
trace: <select id="traces"></select>
<button id="reset">reset view</button>
<span>wheel: zoom &middot; drag: pan</span>
<span id="status"></span>
</div>
<div id="tile"></div>
<table id="legend"><thead><tr><th>category</th><th>kind</th><th>count</th><th>incl (s)</th><th>excl (s)</th></tr></thead><tbody></tbody></table>
<script>
(function() {
  const sel = document.getElementById('traces');
  const tile = document.getElementById('tile');
  const status = document.getElementById('status');
  const legendBody = document.querySelector('#legend tbody');
  let meta = null, t0 = 0, t1 = 1, inflight = null, pending = false;

  function fetchJSON(url) { return fetch(url).then(r => { if (!r.ok) throw new Error(url + ': ' + r.status); return r.json(); }); }

  function loadList() {
    fetchJSON('/traces').then(list => {
      sel.innerHTML = '';
      for (const t of list) {
        const o = document.createElement('option');
        o.value = t.id; o.textContent = t.id;
        sel.appendChild(o);
      }
      if (list.length) loadTrace(list[0].id);
      else status.textContent = 'repository is empty';
    }).catch(e => status.textContent = e.message);
  }

  function loadTrace(id) {
    fetchJSON('/trace/' + encodeURIComponent(id)).then(m => {
      meta = m; t0 = m.start; t1 = m.end;
      refresh(); loadLegend();
    }).catch(e => status.textContent = e.message);
  }

  function loadLegend() {
    fetchJSON('/trace/' + encodeURIComponent(meta.id) + '/legend').then(rows => {
      legendBody.innerHTML = '';
      for (const e of rows) {
        const tr = document.createElement('tr');
        const name = document.createElement('td');
        const sw = document.createElement('span');
        sw.className = 'swatch'; sw.style.background = e.color;
        name.appendChild(sw); name.appendChild(document.createTextNode(e.name));
        tr.appendChild(name);
        for (const v of [e.kind, e.count, e.kind === 'event' ? '-' : e.incl.toFixed(6), e.kind === 'event' ? '-' : e.excl.toFixed(6)]) {
          const td = document.createElement('td'); td.textContent = v; tr.appendChild(td);
        }
        legendBody.appendChild(tr);
      }
    }).catch(e => status.textContent = e.message);
  }

  function refresh() {
    if (!meta) return;
    if (inflight) { pending = true; return; }
    const url = '/trace/' + encodeURIComponent(meta.id) +
      '/tile?format=svg&zoom=1&t0=' + t0 + '&t1=' + t1;
    status.textContent = 'loading [' + t0.toFixed(6) + ', ' + t1.toFixed(6) + ']';
    inflight = fetch(url).then(r => {
      if (!r.ok) throw new Error('tile: ' + r.status);
      return r.text();
    }).then(svg => {
      tile.innerHTML = svg;
      status.textContent = '[' + t0.toFixed(6) + ', ' + t1.toFixed(6) + ']';
    }).catch(e => status.textContent = e.message)
      .finally(() => { inflight = null; if (pending) { pending = false; refresh(); } });
  }

  tile.addEventListener('wheel', ev => {
    ev.preventDefault();
    if (!meta) return;
    const span = t1 - t0;
    const frac = (ev.offsetX / tile.clientWidth) || 0.5;
    const factor = ev.deltaY < 0 ? 0.8 : 1.25;
    const centre = t0 + span * frac;
    t0 = Math.max(meta.start, centre - (centre - t0) * factor);
    t1 = Math.min(meta.end, centre + (t1 - centre) * factor);
    refresh();
  }, { passive: false });

  let dragX = null;
  tile.addEventListener('mousedown', ev => { dragX = ev.clientX; });
  window.addEventListener('mouseup', () => { dragX = null; });
  window.addEventListener('mousemove', ev => {
    if (dragX === null || !meta) return;
    const span = t1 - t0;
    const dt = (dragX - ev.clientX) / tile.clientWidth * span;
    if (t0 + dt >= meta.start && t1 + dt <= meta.end) { t0 += dt; t1 += dt; }
    dragX = ev.clientX;
    refresh();
  });

  document.getElementById('reset').addEventListener('click', () => {
    if (meta) { t0 = meta.start; t1 = meta.end; refresh(); }
  });
  sel.addEventListener('change', () => loadTrace(sel.value));
  loadList();
})();
</script>
</body></html>
`)
