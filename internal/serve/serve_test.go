package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/jumpshot"
	"repro/internal/slog2"
)

const goldenDir = "../../testdata/golden"

var goldenIDs = []string{"collisions", "lab2", "thumbnail"}

func newTestServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{RepoDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	// Transport-level DisableCompression keeps Go from transparently
	// injecting Accept-Encoding and hiding the gzip layer from tests.
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// Served tiles must byte-agree with a direct Query + render over
// random windows on all three golden traces — the acceptance contract.
func TestTileAgreesWithDirectRender(t *testing.T) {
	_, ts := newTestServer(t, goldenDir)
	rng := rand.New(rand.NewSource(42))
	for _, id := range goldenIDs {
		f, err := slog2.ReadFile(filepath.Join(goldenDir, id+".slog2"))
		if err != nil {
			t.Fatal(err)
		}
		tr := &Trace{ID: id, File: f}
		for trial := 0; trial < 12; trial++ {
			span := f.End - f.Start
			t0 := f.Start + rng.Float64()*span
			t1 := t0 + rng.Float64()*(f.End-t0)
			lo, hi := 0, -1
			if trial%3 == 0 && f.NumRanks > 1 {
				lo = rng.Intn(f.NumRanks)
				hi = lo + rng.Intn(f.NumRanks-lo)
			}
			win := jumpshot.Window{T0: t0, T1: t1, RankLo: lo, RankHi: hi}
			url := fmt.Sprintf("%s/trace/%s/tile?t0=%v&t1=%v&r0=%d&r1=%d", ts.URL, id, t0, t1, lo, hi)

			resp, body := get(t, url, nil)
			if resp.StatusCode != 200 {
				t.Fatalf("%s: status %d: %s", url, resp.StatusCode, body)
			}
			want, err := RenderTileJSON(tr, win)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, want) {
				t.Fatalf("%s: served JSON tile differs from direct render", url)
			}

			resp, body = get(t, url+"&format=svg&zoom=2", nil)
			if resp.StatusCode != 200 {
				t.Fatalf("%s svg: status %d", url, resp.StatusCode)
			}
			if wantSVG := RenderTileSVG(tr, win, 2); !bytes.Equal(body, wantSVG) {
				t.Fatalf("%s: served SVG tile differs from direct render", url)
			}
		}
	}
}

// Corrupt and truncated repository files must answer with an HTTP
// error — including fuzz-shaped inputs — never kill the server.
func TestCorruptTraceAnswersHTTPError(t *testing.T) {
	dir := t.TempDir()
	good, err := os.ReadFile(filepath.Join(goldenDir, "lab2.slog2"))
	if err != nil {
		t.Fatal(err)
	}
	writeTrace := func(name string, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, name+".slog2"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeTrace("garbage", []byte("this is not a slog2 file at all"))
	writeTrace("truncated", good[:len(good)/3])
	writeTrace("rootless", []byte(slog2.Magic+"\x01\x00\x00\x0000000000"+
		"00000000\x00\x00\x00\x00\x00\x00\x00\x00\x00")) // fuzz-found shape: header only, no root
	writeTrace("empty", nil)
	writeTrace("ok", good)
	// Half-overwritten and concatenated files decode to their root frame
	// and go on; a file of the previous version is refused by name.
	writeTrace("trailing", append(append([]byte(nil), good...), "garbage"...))
	writeTrace("twice", append(append([]byte(nil), good...), good...))
	writeTrace("previous", append([]byte("SLOG-R0206"), good[len(slog2.Magic):]...))

	_, ts := newTestServer(t, dir)
	for id, want := range map[string]string{"trailing": "trailing bytes", "twice": "trailing bytes", "previous": "clog2slog"} {
		resp, body := get(t, ts.URL+"/trace/"+id+"/tile", nil)
		if resp.StatusCode != 422 || !strings.Contains(string(body), want) {
			t.Errorf("%s/tile: status %d %q, want 422 naming %q", id, resp.StatusCode, body, want)
		}
	}
	for _, id := range []string{"garbage", "truncated", "rootless", "empty"} {
		for _, ep := range []string{"/tile", "/legend", ""} {
			resp, _ := get(t, ts.URL+"/trace/"+id+ep, nil)
			if resp.StatusCode < 400 || resp.StatusCode > 599 {
				t.Fatalf("%s%s: status %d, want 4xx/5xx", id, ep, resp.StatusCode)
			}
		}
		resp, _ := get(t, ts.URL+"/search?trace="+id, nil)
		if resp.StatusCode < 400 || resp.StatusCode > 599 {
			t.Fatalf("search %s: status %d, want 4xx/5xx", id, resp.StatusCode)
		}
	}
	// The server survived all of it and still serves the good trace.
	resp, _ := get(t, ts.URL+"/trace/ok/tile", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("good trace after corrupt ones: status %d", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/trace/missing/tile", nil)
	if resp.StatusCode != 404 {
		t.Fatalf("missing trace: status %d, want 404", resp.StatusCode)
	}
}

func TestBadParamsAnswer400(t *testing.T) {
	_, ts := newTestServer(t, goldenDir)
	for _, q := range []string{
		"t0=abc", "t1=NaN", "r0=-1", "r0=x", "zoom=99", "zoom=-1",
		"format=gif", "t0=5&t1=1",
	} {
		resp, _ := get(t, ts.URL+"/trace/lab2/tile?"+q, nil)
		if resp.StatusCode != 400 {
			t.Fatalf("tile?%s: status %d, want 400", q, resp.StatusCode)
		}
	}
	resp, _ := get(t, ts.URL+"/search", nil)
	if resp.StatusCode != 400 {
		t.Fatalf("search without trace: status %d, want 400", resp.StatusCode)
	}
}

// Every route that takes an optional float parameter parses it the same
// way: absent keeps the default, a number is taken, and NaN or garbage is
// a 400 (legend and search used to answer NaN with an empty or unfiltered
// 200).
func TestFloatParamsParseAlikeOnEveryRoute(t *testing.T) {
	_, ts := newTestServer(t, goldenDir)
	for _, route := range []struct {
		path string
		keys []string
	}{
		{"/trace/lab2/tile?", []string{"t0", "t1"}},
		{"/trace/lab2/legend?", []string{"t0", "t1"}},
		{"/trace/lab2/profile?", []string{"t0", "t1"}},
		{"/trace/lab2/analyze?", []string{"t0", "t1"}},
		{"/search?trace=lab2&", []string{"from", "to", "mindur"}},
	} {
		if resp, body := get(t, ts.URL+route.path, nil); resp.StatusCode != 200 {
			t.Fatalf("%s: status %d with no parameters: %.120s", route.path, resp.StatusCode, body)
		}
		for _, key := range route.keys {
			for value, want := range map[string]int{"0": 200, "0e0": 200, "NaN": 400, "nan": 400, "abc": 400, "1,5": 400} {
				url := ts.URL + route.path + key + "=" + value
				if resp, body := get(t, url, nil); resp.StatusCode != want {
					t.Errorf("%s: status %d, want %d: %.120s", url, resp.StatusCode, want, body)
				}
			}
		}
	}
}

// A window that ends before it starts is a client error on every route
// that takes one, not an empty 200 (a "clean" verdict over no records).
// /search names its bounds from and to, and parses them by the same rules.
func TestInvertedWindowIsBadRequestOnEveryRoute(t *testing.T) {
	_, ts := newTestServer(t, goldenDir)
	for _, route := range []string{"/trace/lab2/tile?", "/trace/lab2/legend?", "/trace/lab2/profile?", "/trace/lab2/analyze?", "/search?trace=lab2&"} {
		keys := strings.NewReplacer()
		if strings.HasPrefix(route, "/search") {
			keys = strings.NewReplacer("t0=", "from=", "t1=", "to=")
		}
		for query, want := range map[string]int{
			"t0=1&t1=5": 200, "t0=5&t1=5": 200, "t0=5&t1=1": 400, "t0=Inf&t1=-Inf": 400,
			// An infinite bound on its own side is no bound; on the wrong
			// side it is an empty window. Never a 500 from encoding an Inf.
			"t0=-Inf": 200, "t1=Inf": 200, "t0=-Inf&t1=Inf": 200, "t0=Inf": 400, "t1=-Inf": 400,
		} {
			url := ts.URL + route + keys.Replace(query)
			resp, body := get(t, url, nil)
			if resp.StatusCode != want {
				t.Errorf("%s: status %d, want %d: %.120s", url, resp.StatusCode, want, body)
			}
			if want == 400 && !strings.Contains(string(body), "empty time window") {
				t.Errorf("%s: body does not name the window: %.120s", url, body)
			}
		}
	}
}

// A tile of zero width is that instant, not the whole log: the SVG tile
// of [mid, mid] on thumbnail draws the states the JSON tile of the same
// window lists, and fewer than the full-span SVG. Only [0, 0] stands for
// the whole log.
func TestZeroWidthTileDrawsItsInstant(t *testing.T) {
	_, ts := newTestServer(t, goldenDir)
	f, err := slog2.ReadFile(filepath.Join(goldenDir, "thumbnail.slog2"))
	if err != nil {
		t.Fatal(err)
	}
	mid := f.Start + (f.End-f.Start)/2
	url := fmt.Sprintf("%s/trace/thumbnail/tile?t0=%v&t1=%v", ts.URL, mid, mid)
	_, js := get(t, url, nil)
	var tile struct {
		States []struct{ T0, T1 float64 }
	}
	if err := json.Unmarshal(js, &tile); err != nil {
		t.Fatal(err)
	}
	_, svg := get(t, url+"&format=svg", nil)
	_, full := get(t, ts.URL+"/trace/thumbnail/tile?format=svg", nil)
	rects := func(svg []byte) int { return bytes.Count(svg, []byte(`<g><rect x="`)) }
	if n := rects(svg); n == 0 || n != len(tile.States) || n >= rects(full) {
		t.Fatalf("the SVG tile of [mid, mid] draws %d states, the JSON tile lists %d, the full span %d",
			n, len(tile.States), rects(full))
	}
	for _, s := range tile.States {
		if title := fmt.Sprintf(" start: %.6f end: %.6f ", s.T0, s.T1); !bytes.Contains(svg, []byte(title)) {
			t.Errorf("the SVG tile of [mid, mid] does not draw the state%s", title)
		}
	}
}

// A search bound left out is the log's own start or end, as on every
// other windowed route: from alone searches [from, end], not the whole log.
func TestSearchFromAloneNarrowsTheWindow(t *testing.T) {
	_, ts := newTestServer(t, goldenDir)
	f, err := slog2.ReadFile(filepath.Join(goldenDir, "thumbnail.slog2"))
	if err != nil {
		t.Fatal(err)
	}
	mid := f.Start + (f.End-f.Start)/2
	want, err := RenderSearchJSON(&Trace{ID: "thumbnail", File: f}, jumpshot.SearchOptions{Rank: -1, Limit: 1000, From: mid, To: f.End})
	if err != nil {
		t.Fatal(err)
	}
	_, all := get(t, ts.URL+"/search?trace=thumbnail", nil)
	for _, query := range []string{fmt.Sprintf("from=%v", mid), fmt.Sprintf("from=%v&to=%v", mid, f.End), fmt.Sprintf("from=%v&to=Inf", mid)} {
		resp, body := get(t, ts.URL+"/search?trace=thumbnail&"+query, nil)
		if resp.StatusCode != 200 || !bytes.Equal(body, want) || bytes.Equal(body, all) {
			t.Errorf("%s: status %d, %d bytes; want the %d bytes of [mid, end], not the whole log's %d",
				query, resp.StatusCode, len(body), len(want), len(all))
		}
	}
}

func TestRepoRejectsTraversalIDs(t *testing.T) {
	repo, err := NewRepo(goldenDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", ".", "..", "../lab2", "a/../b", `a\b`, ".hidden", strings.Repeat("x", 300)} {
		if _, err := repo.Open(id); err == nil {
			t.Fatalf("Open(%q) succeeded", id)
		}
	}
}

// ETag revalidation: the second fetch with If-None-Match costs a 304
// with no payload; a changed file changes the tag.
func TestETagRevalidation(t *testing.T) {
	dir := t.TempDir()
	good, err := os.ReadFile(filepath.Join(goldenDir, "lab2.slog2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "run.slog2"), good, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, dir)
	url := ts.URL + "/trace/run/tile"

	resp, body := get(t, url, nil)
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != 200 || etag == "" || len(body) == 0 {
		t.Fatalf("first fetch: status %d etag %q", resp.StatusCode, etag)
	}
	resp, body = get(t, url, map[string]string{"If-None-Match": etag})
	if resp.StatusCode != 304 {
		t.Fatalf("revalidation: status %d, want 304", resp.StatusCode)
	}
	if len(body) != 0 {
		t.Fatalf("304 carried %d payload bytes", len(body))
	}
	resp, _ = get(t, url, map[string]string{"If-None-Match": `"deadbeef", ` + etag})
	if resp.StatusCode != 304 {
		t.Fatalf("list revalidation: status %d, want 304", resp.StatusCode)
	}
	// Comparison is weak (RFC 9110 §13.1.2): a proxy that weakens the
	// tag when it recompresses still revalidates.
	for header, want := range map[string]int{
		`"stale"`:                 200,
		`W/"stale"`:               200,
		"W/" + etag:               304,
		`"deadbeef", W/` + etag:   304,
		`W/"deadbeef",W/` + etag:  304,
		`W/"stale", "deadbeef"`:   200,
		etag[:len(etag)-1] + `x"`: 200,
	} {
		if resp, _ = get(t, url, map[string]string{"If-None-Match": header}); resp.StatusCode != want {
			t.Errorf("If-None-Match %s: status %d, want %d", header, resp.StatusCode, want)
		}
	}

	// Rewriting the trace invalidates: new generation, new tile, and the
	// old ETag no longer matches.
	f, err := slog2.ReadFile(filepath.Join(goldenDir, "collisions.slog2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := slog2.WriteFile(filepath.Join(dir, "run.slog2"), f); err != nil {
		t.Fatal(err)
	}
	resp, _ = get(t, url, map[string]string{"If-None-Match": etag})
	if resp.StatusCode != 200 {
		t.Fatalf("after rewrite: status %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get("ETag") == etag {
		t.Fatal("ETag unchanged after the trace file changed")
	}
}

func TestGzipOnTiles(t *testing.T) {
	_, ts := newTestServer(t, goldenDir)
	url := ts.URL + "/trace/thumbnail/tile"
	resp, body := get(t, url, map[string]string{"Accept-Encoding": "gzip"})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get("Content-Encoding") != "gzip" {
		t.Fatal("tile not gzipped despite Accept-Encoding")
	}
	gz, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	_, raw := get(t, url, nil)
	if !bytes.Equal(plain, raw) {
		t.Fatal("gzipped tile decompresses to different bytes")
	}
	if len(body) >= len(raw) {
		t.Fatalf("gzip did not shrink the tile: %d >= %d", len(body), len(raw))
	}
}

// A cached tile is kept as gzip only, and a client that refuses gzip gets
// it inflated: the same bytes a gzip client decompresses, with the raw
// length as Content-Length, whichever kind of client rendered it.
func TestIdentityReplyFromGzipEntry(t *testing.T) {
	for _, first := range []string{"identity", "gzip"} {
		_, ts := newTestServer(t, goldenDir)
		url := ts.URL + "/trace/thumbnail/tile?format=svg"
		replies := map[string][]byte{}
		for _, enc := range []string{first, map[string]string{"identity": "gzip", "gzip": "identity"}[first]} {
			resp, body := get(t, url, map[string]string{"Accept-Encoding": enc})
			if resp.StatusCode != 200 {
				t.Fatalf("%s first, %s: status %d", first, enc, resp.StatusCode)
			}
			if got := resp.Header.Get("Content-Encoding") == "gzip"; got != (enc == "gzip") {
				t.Fatalf("%s first, %s: Content-Encoding %q", first, enc, resp.Header.Get("Content-Encoding"))
			}
			if cl := resp.Header.Get("Content-Length"); cl != fmt.Sprint(len(body)) {
				t.Errorf("%s first, %s: Content-Length %s for %d bytes", first, enc, cl, len(body))
			}
			if enc == "gzip" {
				zr, err := gzip.NewReader(bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				if body, err = io.ReadAll(zr); err != nil {
					t.Fatal(err)
				}
			}
			replies[enc] = body
		}
		if !bytes.Equal(replies["identity"], replies["gzip"]) {
			t.Errorf("%s first: identity reply differs from the decompressed gzip reply", first)
		}
	}
}

// No cache entry holds a body and its gzip: a large body is kept as gzip
// only, a small one (an empty window's JSON) as itself.
func TestCachedEntryHoldsOneForm(t *testing.T) {
	s, ts := newTestServer(t, goldenDir)
	for _, q := range []string{"", "?format=svg", "?t0=5&t1=6"} {
		if resp, body := get(t, ts.URL+"/trace/lab2/tile"+q, nil); resp.StatusCode != 200 {
			t.Fatalf("tile%s: status %d: %s", q, resp.StatusCode, body)
		}
	}
	var small, large int
	for key, e := range s.repo.cache.items {
		cb, ok := e.val.(*cachedBody)
		switch {
		case !ok:
			continue // the decoded trace
		case (cb.body == nil) == (cb.gz == nil):
			t.Errorf("%q: body %d bytes, gzip %d bytes; want exactly one", key, len(cb.body), len(cb.gz))
		case cb.gz == nil:
			small++
			if len(cb.body) >= gzipMinBytes || cb.rawLen != len(cb.body) {
				t.Errorf("%q: %d-byte body kept raw (rawLen %d)", key, len(cb.body), cb.rawLen)
			}
		default:
			large++
			if cb.rawLen < gzipMinBytes {
				t.Errorf("%q: %d-byte body kept as gzip", key, cb.rawLen)
			}
		}
	}
	if small != 1 || large != 2 {
		t.Errorf("%d raw and %d gzip entries, want 1 and 2", small, large)
	}
}

// The cache is bounded in bytes: with room for the three decoded traces
// and 24 KiB more, asking for more tile bytes than that keeps the
// cache_bytes gauge under the budget, evicts, and a tile past its
// eviction renders again.
func TestTileCacheStaysInBudget(t *testing.T) {
	const tileRoom = 24 << 10
	probe, err := NewRepo(goldenDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range goldenIDs {
		if _, err := probe.Open(id); err != nil {
			t.Fatal(err)
		}
	}
	traces, _ := probe.cache.size()
	budget := traces + tileRoom
	s, err := New(Config{RepoDir: goldenDir, CacheBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var asked int64
	for zoom := 0; zoom <= 3; zoom++ {
		for _, id := range goldenIDs {
			url := fmt.Sprintf("%s/trace/%s/tile?format=svg&zoom=%d", ts.URL, id, zoom)
			resp, body := get(t, url, map[string]string{"Accept-Encoding": "gzip"})
			if resp.StatusCode != 200 {
				t.Fatalf("%s: status %d", url, resp.StatusCode)
			}
			asked += int64(len(body))
			m := s.MetricsSnapshot()
			if held := m["cache_bytes"]; held <= 0 || held > budget {
				t.Fatalf("after %s: cache_bytes %d, budget %d", url, held, budget)
			}
		}
	}
	m := s.MetricsSnapshot()
	if asked <= tileRoom || m["cache_entries"] >= int64(len(goldenIDs)+4*len(goldenIDs)) {
		t.Fatalf("asked for %d gzip bytes beside the traces' %d in a %d budget, %d entries kept", asked, traces, budget, m["cache_entries"])
	}
	// The first tile was the least recently used: it was evicted and
	// renders again.
	rendered := s.tilesRendered.Load()
	get(t, ts.URL+"/trace/"+goldenIDs[0]+"/tile?format=svg&zoom=0", nil)
	if s.tilesRendered.Load() != rendered+1 {
		t.Errorf("the least recently used tile was still cached")
	}
}

// A q-value of zero refuses a coding: such a client gets identity, any
// other weight (or none) gets gzip. A coding is named in any case, and
// x-gzip is gzip (RFC 9110 §8.4.1.3); a longer name is another coding.
func TestGzipHonoursQValues(t *testing.T) {
	s, ts := newTestServer(t, goldenDir)
	url := ts.URL + "/trace/thumbnail/tile"
	_, raw := get(t, url, nil)
	for header, wantGzip := range map[string]bool{
		"gzip;q=0":               false,
		"gzip; q=0.000, br":      false,
		"br, gzip ; Q=0":         false,
		"identity, gzip;q=0.0":   false,
		"gzip;q=0.001":           true,
		"deflate;q=0, gzip;q=1":  true,
		"gzip;level=9":           true,
		"gzip;q=0.5, identity":   true,
		"x-gzip, gzipped;q=1":    true,
		"gzipped;q=1, br":        false,
		"GZIP":                   true,
		"Gzip":                   true,
		"x-gzip":                 true,
		"GZIP;Q=0":               false,
		"X-Gzip;q=0":             false,
		"deflate, gzip":          true,
		"":                       false,
		"gzip;q=bogus, identity": true,
	} {
		resp, body := get(t, url, map[string]string{"Accept-Encoding": header})
		if got := resp.Header.Get("Content-Encoding") == "gzip"; got != wantGzip {
			t.Errorf("Accept-Encoding %q: gzip %v, want %v", header, got, wantGzip)
		} else if !wantGzip && !bytes.Equal(body, raw) {
			t.Errorf("Accept-Encoding %q: identity body differs from the plain one", header)
		}
	}
	// One render, one compression, and the counters say what it saved.
	m := s.MetricsSnapshot()
	if rawN, gzN := m["tile_bytes_raw"], m["tile_bytes_gz"]; rawN != int64(len(raw)) || gzN <= 0 || gzN >= rawN {
		t.Errorf("tile_bytes_raw %d (tile is %d bytes), tile_bytes_gz %d", rawN, len(raw), gzN)
	}
}

// A HEAD reply has the GET reply's status, ETag and coding but no body,
// and bytes_sent counts none: net/http routes HEAD to the GET handlers
// and drops what they write while reporting it written. Cached tiles,
// a legend and the trace list, as gzip and as identity.
func TestHeadCountsNoBodyBytes(t *testing.T) {
	s, err := New(Config{RepoDir: goldenDir})
	if err != nil {
		t.Fatal(err)
	}
	do := func(method, path, encoding string) (*httptest.ResponseRecorder, int64) {
		req := httptest.NewRequest(method, path, nil)
		req.Header.Set("Accept-Encoding", encoding)
		rec := httptest.NewRecorder()
		before := s.bytesSent.Load()
		s.Handler().ServeHTTP(rec, req)
		return rec, s.bytesSent.Load() - before
	}
	for _, path := range []string{"/trace/thumbnail/tile", "/trace/thumbnail/tile?format=svg", "/trace/thumbnail/legend", "/traces"} {
		for _, enc := range []string{"gzip", "identity"} {
			head, headSent := do("HEAD", path, enc)
			get, getSent := do("GET", path, enc)
			if head.Code != 200 || get.Code != 200 {
				t.Fatalf("%s (%s): HEAD %d, GET %d", path, enc, head.Code, get.Code)
			}
			if headSent != 0 || head.Body.Len() != 0 {
				t.Errorf("%s (%s): HEAD wrote %d body bytes and counted %d sent", path, enc, head.Body.Len(), headSent)
			}
			if getSent != int64(get.Body.Len()) {
				t.Errorf("%s (%s): GET wrote %d body bytes and counted %d sent", path, enc, get.Body.Len(), getSent)
			}
			for _, h := range []string{"ETag", "Content-Encoding", "Content-Type"} {
				if head.Header().Get(h) != get.Header().Get(h) {
					t.Errorf("%s (%s): HEAD %s %q, GET %q", path, enc, h, head.Header().Get(h), get.Header().Get(h))
				}
			}
		}
	}
}

// The ETag depends on the bytes alone: two servers over one repository
// tag a tile alike, and a body one byte different gets another tag. The
// golden full-span tiles' tags are pinned: a client's cached tag stays
// good across a change that keeps the bytes.
func TestETagDependsOnTheBytesAlone(t *testing.T) {
	var tags []string
	for i := 0; i < 2; i++ {
		_, ts := newTestServer(t, goldenDir)
		resp, _ := get(t, ts.URL+"/trace/lab2/tile", nil)
		tags = append(tags, resp.Header.Get("ETag"))
	}
	if tags[0] != tags[1] || tags[0] != `"3219c90f371e0569"` { // lab2.tile-full.json's
		t.Fatalf("two servers tagged one tile %s and %s, want lab2.tile-full.json's pinned tag", tags[0], tags[1])
	}
	body, err := os.ReadFile(filepath.Join(goldenDir, "lab2.tile-full.svg"))
	if err != nil {
		t.Fatal(err)
	}
	tag := etagOf(body, crc32.ChecksumIEEE(body))
	if tag != `"c8fe1f3475d130e5"` {
		t.Fatalf("lab2.tile-full.svg tagged %s, want its pinned tag", tag)
	}
	for i := range body {
		for _, flip := range []byte{1, 0x80, 0xff} {
			body[i] ^= flip
			if etagOf(body, crc32.ChecksumIEEE(body)) == tag {
				t.Fatalf("byte %d xor %#x: same tag %s", i, flip, tag)
			}
			body[i] ^= flip
		}
	}
}

// Concurrent first hits must collapse to one decode per trace and one
// render per tile (singleflight).
func TestSingleflightCollapsesColdHits(t *testing.T) {
	dir := t.TempDir()
	for _, id := range goldenIDs {
		data, err := os.ReadFile(filepath.Join(goldenDir, id+".slog2"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, id+".slog2"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, ts := newTestServer(t, dir)
	const clients = 24
	var wg sync.WaitGroup
	errs := make(chan error, clients*len(goldenIDs))
	for _, id := range goldenIDs {
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				resp, err := http.Get(ts.URL + "/trace/" + id + "/tile")
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("%s: status %d", id, resp.StatusCode)
				}
			}(id)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.MetricsSnapshot()["trace_decodes"]; got != int64(len(goldenIDs)) {
		t.Fatalf("decodes = %d under concurrent first hits, want %d (one per trace)", got, len(goldenIDs))
	}
	if got := s.tilesRendered.Load(); got != int64(len(goldenIDs)) {
		t.Fatalf("tile renders = %d, want %d (one per distinct tile)", got, len(goldenIDs))
	}
}

// Two windows that agree to twelve significant digits are still two
// windows: each gets its own render, body and ETag (a "%.12g" cache key
// used to hand the second viewer the first one's bytes).
func TestTileCacheKeyKeepsNearbyWindowsApart(t *testing.T) {
	s, ts := newTestServer(t, goldenDir)
	var bodies [2][]byte
	var etags [2]string
	for i, t0 := range []string{"1234.500000001", "1234.500000002"} {
		resp, body := get(t, ts.URL+"/trace/lab2/tile?t0="+t0+"&t1=1235", nil)
		if resp.StatusCode != 200 {
			t.Fatalf("t0=%s: status %d", t0, resp.StatusCode)
		}
		if !bytes.Contains(body, []byte(`"t0":`+t0+",")) {
			t.Errorf("t0=%s: body is another window's: %s", t0, body)
		}
		bodies[i], etags[i] = body, resp.Header.Get("ETag")
	}
	if bytes.Equal(bodies[0], bodies[1]) || etags[0] == etags[1] {
		t.Errorf("windows 1 ns apart were served the same tile (ETags %s, %s)", etags[0], etags[1])
	}
	if got := s.tilesRendered.Load(); got != 2 {
		t.Errorf("tiles_rendered = %d, want 2", got)
	}
}

func TestLegendAndSearchMatchDirect(t *testing.T) {
	_, ts := newTestServer(t, goldenDir)
	f, err := slog2.ReadFile(filepath.Join(goldenDir, "lab2.slog2"))
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trace{ID: "lab2", File: f}

	resp, body := get(t, ts.URL+"/trace/lab2/legend", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("legend: status %d", resp.StatusCode)
	}
	want, err := RenderLegendJSON(tr, f.Start, f.End)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("served legend differs from direct render")
	}

	resp, body = get(t, ts.URL+"/search?trace=lab2&name=PI_Read&limit=5", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("search: status %d", resp.StatusCode)
	}
	want, err = RenderSearchJSON(tr, jumpshot.SearchOptions{Name: "PI_Read", Rank: -1, Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("served search differs from direct call")
	}
	var hits []searchHitJSON
	if err := json.Unmarshal(body, &hits); err != nil || len(hits) == 0 || len(hits) > 5 {
		t.Fatalf("search hits: %v (%d)", err, len(hits))
	}
}

func TestTracesMetaProfileViewer(t *testing.T) {
	_, ts := newTestServer(t, goldenDir)

	resp, body := get(t, ts.URL+"/traces", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("/traces: status %d", resp.StatusCode)
	}
	var list []TraceInfo
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 || list[0].ID != "collisions" {
		t.Fatalf("listing %+v", list)
	}
	// Every listed trace's profile is its log's.
	for _, ti := range list {
		if resp, body := get(t, ts.URL+"/trace/"+ti.ID+"/profile", nil); resp.StatusCode != 200 || !bytes.Equal(body, logProfileJSON(t, goldenDir, ti.ID)) {
			t.Fatalf("%s: profile (status %d) is not its log's", ti.ID, resp.StatusCode)
		}
	}

	resp, body = get(t, ts.URL+"/trace/lab2", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("meta: status %d", resp.StatusCode)
	}
	var meta traceMetaJSON
	if err := json.Unmarshal(body, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.NumRanks < 2 || len(meta.Categories) == 0 || !meta.HasClog {
		t.Fatalf("meta %+v", meta)
	}

	resp, body = get(t, ts.URL+"/trace/lab2/profile", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("profile: status %d", resp.StatusCode)
	}
	if !bytes.Equal(body, logProfileJSON(t, goldenDir, "lab2")) {
		t.Fatal("served profile differs from the log's")
	}

	resp, body = get(t, ts.URL+"/", nil)
	if resp.StatusCode != 200 || !bytes.Contains(body, []byte("pilot-serve")) {
		t.Fatalf("viewer: status %d", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/healthz", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/debug/vars", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("debug/vars: status %d", resp.StatusCode)
	}
}

// Serve drains gracefully when its context is cancelled.
func TestServeGracefulShutdown(t *testing.T) {
	s, err := New(Config{RepoDir: goldenDir})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v after graceful shutdown", err)
	}
}

// BenchmarkColdTile is what a tile-cache miss costs past the decode:
// the middle tenth of the thumbnail golden log rendered into a reused
// buffer, as SVG and as JSON, then its ETag, its gzip and the entry's
// copy of it. MB/s is of the rendered body; allocs/op is per tile.
func BenchmarkColdTile(b *testing.B) {
	log, err := os.Open(filepath.Join(goldenDir, "thumbnail.clog2"))
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	f, _, err := slog2.ConvertReader(log, slog2.ConvertOptions{})
	if err != nil {
		b.Fatal(err)
	}
	tr, span := &Trace{ID: "thumbnail", File: f}, f.End-f.Start
	win := jumpshot.Window{T0: f.Start + 0.45*span, T1: f.Start + 0.55*span, RankLo: 0, RankHi: -1}
	for _, format := range []string{"svg", "json"} {
		b.Run(format, func(b *testing.B) {
			var s Server
			p := tileParams{win: win, format: format}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cb, err := s.renderCached(tr, p)
				if err != nil {
					b.Fatal(err)
				}
				if cb.gz == nil {
					b.Fatalf("%d-byte tile went uncompressed", cb.rawLen)
				}
				b.SetBytes(int64(cb.rawLen))
			}
		})
	}
}
