package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analyze"
	"repro/internal/jumpshot"
	"repro/internal/stats"
)

// Config tunes a Server.
type Config struct {
	// RepoDir is the trace repository directory (required).
	RepoDir string
	// CacheBytes bounds the one cache, of decoded traces and rendered
	// bodies, by what its entries hold, keys included (default 128 MiB).
	CacheBytes int64
	// Logf, when set, receives one line per request error; nil is quiet.
	Logf func(format string, args ...any)
}

// Server answers tile queries over a trace repository. Create with
// New, mount via Handler, or run with Serve for the full production
// posture (graceful shutdown included).
type Server struct {
	repo *Repo
	mux  *http.ServeMux
	logf func(string, ...any)

	// counters behind the "pilot_serve" expvar.
	requests      atomic.Int64
	errors        atomic.Int64
	tilesRendered atomic.Int64
	tilesShared   atomic.Int64 // tile requests that waited on another's render
	notModified   atomic.Int64
	bytesSent     atomic.Int64
	// what tile-cache misses compressed, before and after, and the time
	// they took to draw and to compress: tiles only, not verdicts.
	tileBytesRaw   atomic.Int64
	tileBytesGz    atomic.Int64
	tileRenderNs   atomic.Int64
	tileCompressNs atomic.Int64
	// profile accounting: profiles actually computed (cache misses that
	// did real work, at any window), and how many of those the block
	// table answered (the rest fell back to the full streaming scan).
	profilesWindowed atomic.Int64
	profilesIndexed  atomic.Int64
	// analysis accounting: verdict reports actually computed (cache
	// misses that did real work) and requests that waited on another's.
	analyzesComputed atomic.Int64
	analyzesShared   atomic.Int64
}

// New builds a Server over cfg.RepoDir.
func New(cfg Config) (*Server, error) {
	repo, err := NewRepo(cfg.RepoDir, cfg.CacheBytes)
	if err != nil {
		return nil, err
	}
	s := &Server{repo: repo, logf: cfg.Logf}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /{$}", s.handleViewer)
	s.mux.HandleFunc("GET /traces", s.handleTraces)
	s.mux.HandleFunc("GET /trace/{id}", s.handleMeta)
	s.mux.HandleFunc("GET /trace/{id}/tile", s.handleTile)
	s.mux.HandleFunc("GET /trace/{id}/legend", s.handleLegend)
	s.mux.HandleFunc("GET /trace/{id}/profile", s.handleProfile)
	s.mux.HandleFunc("GET /trace/{id}/analyze", s.handleAnalyze)
	s.mux.HandleFunc("GET /search", s.handleSearch)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	// Observability: the expvar page (carrying "pilot_serve" and, when a
	// run publishes one, "pilot_stats") and the pprof family — the same
	// endpoint machinery pilot-bench -metrics-addr exposes, mounted on
	// this mux instead of the default one.
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	publishServeExpvar(s)
	return s, nil
}

// Repo exposes the underlying repository (pilot-serve -smoke lists it).
func (s *Server) Repo() *Repo { return s.repo }

// Handler returns the server's HTTP handler, wrapped in panic
// recovery: a bug in a render path becomes a 500, never a dead server.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		defer func() {
			if rec := recover(); rec != nil {
				s.errors.Add(1)
				s.logf("serve: panic serving %s: %v", r.URL.Path, rec)
				// Headers may already be out; WriteHeader after that is
				// a no-op and the connection just drops.
				http.Error(w, "internal error", http.StatusInternalServerError)
			}
		}()
		s.mux.ServeHTTP(w, r)
	})
}

// Serve runs the server on ln until ctx is cancelled, then drains
// in-flight requests (graceful shutdown, 10s grace).
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(shutCtx)
	}()
	err := srv.Serve(ln)
	if !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-done
}

// ---- response plumbing: errors, ETag, gzip ----

// httpStatus maps repository/parse errors onto status codes: the
// hostile-file contract is "4xx/5xx, never die".
func httpStatus(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrBadID):
		return http.StatusBadRequest
	case errors.Is(err, ErrCorrupt):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) fail(w http.ResponseWriter, r *http.Request, err error) {
	s.errors.Add(1)
	code := httpStatus(err)
	s.logf("serve: %s %s: %d %v", r.Method, r.URL.Path, code, err)
	http.Error(w, err.Error(), code)
}

func (s *Server) failBadRequest(w http.ResponseWriter, r *http.Request, err error) {
	s.errors.Add(1)
	s.logf("serve: %s %s: 400 %v", r.Method, r.URL.Path, err)
	http.Error(w, err.Error(), http.StatusBadRequest)
}

// etagOf computes the strong ETag for a response body, from its bytes
// alone: CRC-32C then CRC-32, both of which hash/crc32 runs in hardware.
// crc is the body's CRC-32 (crc32.ChecksumIEEE), which is also its gzip
// trailer's, so a compressed reply takes it once.
func etagOf(body []byte, crc uint32) string {
	return fmt.Sprintf(`"%016x"`, uint64(crc32.Checksum(body, castagnoli))<<32|uint64(crc))
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// etagMatch implements the If-None-Match comparison against the
// server's strong etag: the "*" wildcard, or any listed tag equal to it
// under weak comparison (RFC 9110 §13.1.2), so W/"x" matches "x" — the
// form a proxy that recompresses turns a strong tag into.
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	if header == "*" {
		return true
	}
	for _, part := range splitComma(header) {
		if strings.TrimPrefix(part, "W/") == etag {
			return true
		}
	}
	return false
}

func splitComma(s string) []string {
	var out []string
	for s != "" {
		var part string
		part, s, _ = strings.Cut(s, ",")
		if part = strings.Trim(part, " \t"); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// gzipMinBytes is the body size below which compression costs more
// than it saves.
const gzipMinBytes = 512

// acceptsGzip reports whether Accept-Encoding lists gzip with a non-zero
// weight: "gzip;q=0" is a refusal and gets identity. A content coding is
// named in any case, and x-gzip is gzip (RFC 9110 §8.4.1.3).
func acceptsGzip(r *http.Request) bool {
	for _, part := range splitComma(r.Header.Get("Accept-Encoding")) {
		coding, weight, _ := strings.Cut(part, ";")
		if coding = strings.TrimSpace(coding); !strings.EqualFold(coding, "gzip") && !strings.EqualFold(coding, "x-gzip") {
			continue
		}
		k, v, _ := strings.Cut(weight, "=")
		q, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		return !strings.EqualFold(strings.TrimSpace(k), "q") || err != nil || q > 0
	}
	return false
}

// writeHeaders sets the headers every body reply carries and answers a
// matching If-None-Match with a 304 and zero payload bytes — the cache
// policy that makes a browser viewer cheap to refresh. It reports
// whether the caller still has a body to send.
func (s *Server) writeHeaders(w http.ResponseWriter, r *http.Request, ctype, etag string) bool {
	h := w.Header()
	h.Set("Content-Type", ctype)
	h.Set("ETag", etag)
	h.Set("Vary", "Accept-Encoding")
	h.Set("Cache-Control", "no-cache") // revalidate via ETag, don't go stale
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		s.notModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return false
	}
	return true
}

// writeBody sends an uncached body with ETag revalidation, gzipped when
// it is large enough and the client accepts gzip; HEAD compresses none.
func (s *Server) writeBody(w http.ResponseWriter, r *http.Request, ctype string, body []byte) {
	crc := crc32.ChecksumIEEE(body)
	if !s.writeHeaders(w, r, ctype, etagOf(body, crc)) {
		return
	}
	if len(body) < gzipMinBytes || !acceptsGzip(r) {
		s.send(w, r, body)
		return
	}
	w.Header().Set("Content-Encoding", "gzip")
	if r.Method == http.MethodHead {
		return
	}
	sc := getScratch()
	sc.out = sc.enc.appendGzip(sc.out[:0], body, crc)
	s.send(w, r, sc.out)
	putScratch(sc)
}

// send writes body with its Content-Length and counts what goes on the
// wire: nothing for HEAD, whose body net/http drops but reports written.
func (s *Server) send(w http.ResponseWriter, r *http.Request, body []byte) {
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if r.Method == http.MethodHead {
		return
	}
	n, _ := w.Write(body)
	s.bytesSent.Add(int64(n))
}

// writeCached sends a cache entry with ETag revalidation. Its gzip bytes
// go out as they are to a client that accepts gzip — the hot path, which
// compressed once at render time and never again — and are inflated on
// the fly for the rare one that does not.
func (s *Server) writeCached(w http.ResponseWriter, r *http.Request, cb *cachedBody) {
	if !s.writeHeaders(w, r, cb.ctype, cb.etag) {
		return
	}
	if cb.gz == nil {
		s.send(w, r, cb.body)
		return
	}
	h := w.Header()
	if acceptsGzip(r) {
		h.Set("Content-Encoding", "gzip")
		s.send(w, r, cb.gz)
		return
	}
	zr, err := gzip.NewReader(bytes.NewReader(cb.gz))
	if err != nil { // the server's own gzip: cannot happen
		s.fail(w, r, err)
		return
	}
	h.Set("Content-Length", strconv.Itoa(cb.rawLen))
	if r.Method != http.MethodHead {
		io.Copy(&countingWriter{w: w, n: &s.bytesSent}, zr)
	}
}

type countingWriter struct {
	w http.ResponseWriter
	n *atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// cachedBody is one rendered-body entry: a body in exactly one
// form, with its ETag (of the raw bytes) computed once. A body worth
// compressing is kept only as its gzip, which is what nearly every
// client is sent; a smaller one is kept as it is.
type cachedBody struct {
	body   []byte // the body, when it is below gzipMinBytes; else nil
	gz     []byte // its gzip, when it is not; else nil
	rawLen int    // len of the body: an identity reply's Content-Length
	ctype  string
	etag   string
}

func (cb *cachedBody) bytes() int64 { return int64(len(cb.body) + len(cb.gz)) }

// scratch is what a cache miss or a compressed reply works in.
type scratch struct {
	enc         gzEncoder
	render, out []byte
}

// freeScratch keeps idle scratch for the process, as many as can work at
// once: a sync.Pool, which every GC empties, would have each cycle grow
// the buffers again. Both go to the GC once one passes 4 MiB (the largest
// tile of a serve_session session on seed 1 is a 30 % window as SVG,
// 2.6 MB; its largest JSON tile, a 10 % window, is 0.8 MB).
var freeScratch = make(chan *scratch, runtime.GOMAXPROCS(0))

func getScratch() *scratch {
	select {
	case sc := <-freeScratch:
		return sc
	default:
		return new(scratch)
	}
}

func putScratch(sc *scratch) {
	if cap(sc.render) > 4<<20 || cap(sc.out) > 4<<20 {
		sc.render, sc.out = nil, nil
	}
	select {
	case freeScratch <- sc:
	default:
	}
}

// newCachedBody builds the cache entry for body, which the caller may
// reuse once it returns: the ETag, and either a copy of the body or its
// gzip form, compressed in sc. It reports how long the gzip took (zero
// when there is none).
func newCachedBody(sc *scratch, body []byte, ctype string) (*cachedBody, time.Duration) {
	crc := crc32.ChecksumIEEE(body)
	cb := &cachedBody{rawLen: len(body), ctype: ctype, etag: etagOf(body, crc)}
	if len(body) < gzipMinBytes {
		cb.body = bytes.Clone(body)
		return cb, 0
	}
	start := time.Now()
	sc.out = sc.enc.appendGzip(sc.out[:0], body, crc)
	took := time.Since(start)
	cb.gz = bytes.Clone(sc.out)
	return cb, took
}

// renderCached is a tile-cache miss, drawn in scratch and made an entry.
// It counts the tile's drawing, and its compression when it has one.
func (s *Server) renderCached(tr *Trace, p tileParams) (*cachedBody, error) {
	sc := getScratch() // not handed back on a panic, which may leave it half-used
	start := time.Now()
	body, ctype, err := renderTile(sc.render[:0], tr, p)
	if err != nil {
		putScratch(sc)
		return nil, err
	}
	sc.render = body
	s.tileRenderNs.Add(int64(time.Since(start)))
	cb, took := newCachedBody(sc, body, ctype)
	putScratch(sc)
	if cb.gz != nil {
		s.tileCompressNs.Add(int64(took))
		s.tileBytesRaw.Add(int64(len(body)))
		s.tileBytesGz.Add(int64(len(cb.gz)))
	}
	return cb, nil
}

// ---- handlers ----

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	list, err := s.repo.List()
	if err != nil {
		s.fail(w, r, err)
		return
	}
	body, err := json.Marshal(list)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	s.writeBody(w, r, "application/json; charset=utf-8", body)
}

// traceMetaJSON is the /trace/{id} header card.
type traceMetaJSON struct {
	ID         string            `json:"id"`
	NumRanks   int               `json:"num_ranks"`
	Start      float64           `json:"start"`
	End        float64           `json:"end"`
	Depth      int               `json:"tree_depth"`
	Categories []legendEntryJSON `json:"categories"`
	Warnings   []string          `json:"warnings,omitempty"`
	// HasClog/Index surface the raw log and its block table: whether
	// profile and verdict queries are possible and whether a window will
	// go through the table ("ok") or degrade to a full scan ("degraded").
	HasClog bool   `json:"has_clog"`
	Index   string `json:"index,omitempty"`
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	tr, err := s.repo.Open(r.PathValue("id"))
	if err != nil {
		s.fail(w, r, err)
		return
	}
	f := tr.File
	meta := traceMetaJSON{
		ID: tr.ID, NumRanks: f.NumRanks, Start: f.Start, End: f.End,
		Depth: f.Depth(), Warnings: f.Warnings,
	}
	for _, c := range f.Categories {
		kind := "state"
		if c.Kind != 0 {
			kind = "event"
		}
		meta.Categories = append(meta.Categories, legendEntryJSON{Name: c.Name, Color: c.Color, Kind: kind})
	}
	meta.Index = s.repo.IndexStatus(tr.ID)
	meta.HasClog = meta.Index != ""
	body, err := json.Marshal(meta)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	s.writeBody(w, r, "application/json; charset=utf-8", body)
}

func (s *Server) handleTile(w http.ResponseWriter, r *http.Request) {
	tr, err := s.repo.Open(r.PathValue("id"))
	if err != nil {
		s.fail(w, r, err)
		return
	}
	p, err := parseTileParams(r.URL.Query(), tr.File)
	if err != nil {
		s.failBadRequest(w, r, err)
		return
	}
	v, shared, err := s.repo.cache.get(bodyKind, p.cacheKey(tr), func() (weighed, error) {
		cb, err := s.renderCached(tr, p)
		if err != nil {
			return nil, err
		}
		s.tilesRendered.Add(1)
		return cb, nil
	})
	if err != nil {
		s.fail(w, r, err)
		return
	}
	if shared {
		s.tilesShared.Add(1)
	}
	s.writeCached(w, r, v.(*cachedBody))
}

func (s *Server) handleLegend(w http.ResponseWriter, r *http.Request) {
	tr, err := s.repo.Open(r.PathValue("id"))
	if err != nil {
		s.fail(w, r, err)
		return
	}
	t0, t1 := tr.File.Start, tr.File.End
	if err := queryWindow(r.URL.Query(), "t0", "t1", &t0, &t1); err != nil {
		s.failBadRequest(w, r, err)
		return
	}
	body, err := RenderLegendJSON(tr, t0, t1)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	s.writeBody(w, r, "application/json; charset=utf-8", body)
}

// handleProfile serves the profile of a trace's registered raw CLOG-2
// over the request's window: what pilot-profile -json prints for it.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	s.serveFromLog(w, r, "profile", func(path string, t0, t1 float64) ([]byte, error) {
		p, usedIndex, err := stats.ComputeProfileFileWindowed(path, t0, t1)
		if err != nil {
			return nil, err
		}
		s.profilesWindowed.Add(1)
		if usedIndex {
			s.profilesIndexed.Add(1)
		}
		return p.JSON()
	})
}

// handleAnalyze serves the pathology-analysis verdict of a trace's
// registered raw CLOG-2 over the request's window.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if s.serveFromLog(w, r, "analyze", func(path string, t0, t1 float64) ([]byte, error) {
		rep, err := analyze.AnalyzeFileWindowed(path, t0, t1)
		if err != nil {
			return nil, err
		}
		s.analyzesComputed.Add(1)
		return rep.JSON()
	}) {
		s.analyzesShared.Add(1)
	}
}

// serveFromLog answers a route computed from a trace's registered raw
// CLOG-2 alone, over the window t0/t1 (no bound is ±Inf), with the same
// cache posture as tiles: the body lives in the cache beside them, keyed
// on the route, the log's generation and the window, so a repeat
// computes nothing and a rewritten log computes again; concurrent cold
// misses compute once, and the body goes out with ETag revalidation and
// gzip. It reports whether the reply waited on another request's compute.
func (s *Server) serveFromLog(w http.ResponseWriter, r *http.Request, route string, compute func(path string, t0, t1 float64) ([]byte, error)) bool {
	id := r.PathValue("id")
	t0, t1 := math.Inf(-1), math.Inf(1)
	if err := queryWindow(r.URL.Query(), "t0", "t1", &t0, &t1); err != nil {
		s.failBadRequest(w, r, err)
		return false
	}
	path, gen, _, err := s.repo.stat(id, ".clog2")
	if err != nil {
		s.fail(w, r, err)
		return false
	}
	key := fmt.Sprintf("%s\x00%s\x00%s\x00%g\x00%g", route, id, gen, t0, t1)
	v, shared, err := s.repo.cache.get(bodyKind, key, func() (weighed, error) {
		body, err := compute(path, t0, t1)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, id, err)
		}
		sc := getScratch()
		cb, _ := newCachedBody(sc, body, "application/json; charset=utf-8")
		putScratch(sc)
		return cb, nil
	})
	if err != nil {
		s.fail(w, r, err)
		return false
	}
	s.writeCached(w, r, v.(*cachedBody))
	return shared
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	id := q.Get("trace")
	if id == "" {
		s.failBadRequest(w, r, fmt.Errorf("serve: /search needs ?trace="))
		return
	}
	tr, err := s.repo.Open(id)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	opts := jumpshot.SearchOptions{Rank: -1, Limit: 1000, From: tr.File.Start, To: tr.File.End}
	opts.Name = q.Get("name")
	opts.Cargo = q.Get("cargo")
	if err := queryWindow(q, "from", "to", &opts.From, &opts.To); err != nil {
		s.failBadRequest(w, r, err)
		return
	}
	if err := queryFloat(q, "mindur", &opts.MinDuration); err != nil {
		s.failBadRequest(w, r, err)
		return
	}
	for _, key := range []string{"rank", "limit"} {
		if v := q.Get(key); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				s.failBadRequest(w, r, fmt.Errorf("serve: bad %s=%q", key, v))
				return
			}
			if key == "rank" {
				opts.Rank = n
			} else if n > 0 && n < opts.Limit {
				opts.Limit = n
			}
		}
	}
	body, err := RenderSearchJSON(tr, opts)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	s.writeBody(w, r, "application/json; charset=utf-8", body)
}

// ---- expvar ----

// Like stats.Publish, the expvar name registers once per process and
// reads through an atomic pointer, so test suites creating many
// servers never panic on a duplicate name.
var (
	serveExpvarOnce sync.Once
	publishedServer atomic.Pointer[Server]
)

func publishServeExpvar(s *Server) {
	publishedServer.Store(s)
	serveExpvarOnce.Do(func() {
		expvar.Publish("pilot_serve", expvar.Func(func() any {
			srv := publishedServer.Load()
			if srv == nil {
				return nil
			}
			return map[string]any{
				"counters":    srv.MetricsSnapshot(),
				"trace_index": srv.TraceIndexSnapshot(),
			}
		}))
	})
}

// MetricsSnapshot returns the server's counters as a flat map — the
// "pilot_serve" expvar payload.
func (s *Server) MetricsSnapshot() map[string]int64 {
	c := s.repo.cache
	cacheBytes, cacheEntries := c.size()
	return map[string]int64{
		"requests":                  s.requests.Load(),
		"errors":                    s.errors.Load(),
		"tiles_rendered":            s.tilesRendered.Load(),
		"tiles_singleflight_shared": s.tilesShared.Load(),
		"tile_cache_hits":           c.hits[bodyKind].Load(),
		"tile_cache_misses":         c.misses[bodyKind].Load(),
		"trace_cache_hits":          c.hits[traceKind].Load(),
		"trace_cache_misses":        c.misses[traceKind].Load(),
		"cache_bytes":               cacheBytes,
		"cache_entries":             cacheEntries,
		"cache_refused":             c.refused.Load(),
		"trace_decodes":             c.misses[traceKind].Load(), // a trace miss is one decode
		"responses_304":             s.notModified.Load(),
		"bytes_sent":                s.bytesSent.Load(),
		"tile_bytes_raw":            s.tileBytesRaw.Load(),
		"tile_bytes_gz":             s.tileBytesGz.Load(),
		"tile_render_ns":            s.tileRenderNs.Load(),
		"tile_compress_ns":          s.tileCompressNs.Load(),
		"profiles_windowed":         s.profilesWindowed.Load(),
		"profiles_windowed_indexed": s.profilesIndexed.Load(),
		"analyzes_computed":         s.analyzesComputed.Load(),
		"analyzes_singleflight":     s.analyzesShared.Load(),
	}
}

// TraceIndexSnapshot reports the state of each registered trace's raw-log
// block table ("ok"/"degraded"; "none" when no raw log is registered) —
// the per-trace half of the "pilot_serve" expvar.
func (s *Server) TraceIndexSnapshot() map[string]string {
	out := map[string]string{}
	list, err := s.repo.List()
	if err != nil {
		return out
	}
	for _, ti := range list {
		if ti.Index != "" {
			out[ti.ID] = ti.Index
		} else {
			out[ti.ID] = "none"
		}
	}
	return out
}
