package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/bench/gen"
	"repro/internal/jumpshot"
	"repro/internal/serve"
	"repro/internal/slog2"
)

// serveSession drives pilot-serve over a repository of generated traces on
// a real loopback listener, as a closed loop of two viewers: each waits
// for its reply before it asks again. One journey is one viewer session
// against a freshly started server: connect (list, open every trace), a
// cold phase of distinct tiles that all render, a warm phase replaying
// them from the tile cache (one in four revalidating with If-None-Match),
// and a mixed phase of pan/zoom tiles drawn Zipf-wise, legends, windowed
// profiles, searches and verdicts. serve, jumpshot and slog2.Query do the
// work.
type serveSession struct {
	base
	ids   []string
	cold  []request
	mixed []request
	// last holds the server counters of the latest session, phase by
	// phase, for the layer battery.
	last         sessionCounters
	checkedTiles bool
}

// request is one GET of the session script.
type request struct {
	url string // path and query
	// Tile requests keep their parsed parameters so that the reply can be
	// compared with a direct render.
	id     string
	win    jumpshot.Window
	format string
}

// sessionCounters are pilot_serve counter readings taken over /debug/vars.
type sessionCounters struct {
	afterConnect, afterCold, afterWarm, afterMixed map[string]int64
}

func (s *serveSession) repo() string { return filepath.Join(s.dir, "repo") }

func (s *serveSession) setup(dir string, seed int64) error {
	s.dir = dir
	if err := os.Mkdir(s.repo(), 0o755); err != nil {
		return err
	}
	s.ids = nil
	spans := map[string][2]float64{}
	for i := 0; i < s.sc.traces; i++ {
		id := fmt.Sprintf("t%d", i)
		clog := filepath.Join(dir, id+".clog2")
		counts, err := gen.WriteFile(clog, gen.ForSize(seed*16+int64(i), s.sc.traceBytes))
		if err != nil {
			return err
		}
		if _, _, _, err := register(nil, 0, clog, s.repo(), id); err != nil {
			return err
		}
		s.ids = append(s.ids, id)
		spans[id] = [2]float64{counts.Start, counts.End}
	}
	s.cold, s.mixed = sessionScript(rand.New(rand.NewSource(seed)), s.ids, spans, s.sc.coldTiles, s.sc.mixedReqs)
	return nil
}

// tileRequest builds the request for one tile. The window is rounded the
// way the URL prints it, so that a direct render sees what the server
// parses.
func tileRequest(id string, t0, t1 float64, rankLo, rankHi int, format string) request {
	round := func(v float64) float64 {
		r, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'f', 9, 64), 64)
		return r
	}
	t0, t1 = round(t0), round(t1)
	u := fmt.Sprintf("/trace/%s/tile?t0=%.9f&t1=%.9f&format=%s", id, t0, t1, format)
	if rankHi >= rankLo {
		u += fmt.Sprintf("&r0=%d&r1=%d", rankLo, rankHi)
	}
	return request{url: u, id: id, win: jumpshot.Window{T0: t0, T1: t1, RankLo: rankLo, RankHi: rankHi}, format: format}
}

// sessionScript builds the session's requests. Its shape is the same for
// every seed, so that runs on different seeds do the same amount of work;
// only where in the trace each window lands is drawn from rng. The cold
// list holds nCold distinct tiles: spans of 10%, 1% and 0.1% of the trace
// in turn, SVG and JSON alternating, a three-rank sub-range on every third.
// The mixed list holds nMixed requests, in every twenty 14 tiles drawn
// Zipf-wise from a 48-tile pan/zoom walk (so that the cache hit ratio is a
// property of the script), 2 windowed legends, 2 windowed profiles, a
// search and a verdict.
func sessionScript(rng *rand.Rand, ids []string, spans map[string][2]float64, nCold, nMixed int) (cold, mixed []request) {
	fractions := []float64{0.1, 0.01, 0.001}
	formats := []string{"svg", "json"}
	for i := 0; i < nCold; i++ {
		id := ids[i%len(ids)]
		start, span := spans[id][0], spans[id][1]-spans[id][0]
		frac := fractions[i%3]
		t0 := start + rng.Float64()*(1-frac)*span
		lo, hi := 0, -1
		if i%3 == 2 {
			lo = rng.Intn(5)
			hi = lo + 2
		}
		cold = append(cold, tileRequest(id, t0, t0+frac*span, lo, hi, formats[(i/3)%2]))
	}

	// The pan/zoom walk: a viewer zooms in by three, pans by up to half a
	// screen, zooms back out, and moves to the next trace every twelfth
	// step.
	zoom := []float64{0.1, 0.1, 0.03, 0.03, 0.01, 0.01, 0.003, 0.01, 0.03, 0.1, 0.3, 0.1}
	const poolSize = 48
	pool := make([]request, 0, poolSize)
	centre := 0.5
	for i := 0; i < poolSize; i++ {
		id, frac := ids[(i/len(zoom))%len(ids)], zoom[i%len(zoom)]
		centre = min(max(centre+frac*(rng.Float64()-0.5), frac/2), 1-frac/2)
		start, span := spans[id][0], spans[id][1]-spans[id][0]
		t0 := start + (centre-frac/2)*span
		pool = append(pool, tileRequest(id, t0, t0+frac*span, 0, -1, formats[i%2]))
	}
	// Which tile of the walk each request revisits is part of the shape.
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.2, 1, poolSize-1)
	names := []string{"PI_Read", "PI_Write", "Compute"}
	for i := 0; i < nMixed; i++ {
		id := ids[(i+i/20)%len(ids)]
		start, span := spans[id][0], spans[id][1]-spans[id][0]
		switch i % 20 {
		case 3, 13:
			t0 := start + rng.Float64()*0.9*span
			mixed = append(mixed, request{url: fmt.Sprintf("/trace/%s/legend?t0=%.9f&t1=%.9f", id, t0, t0+0.1*span)})
		case 6, 16:
			t0 := start + rng.Float64()*0.99*span
			mixed = append(mixed, request{url: fmt.Sprintf("/trace/%s/profile?t0=%.9f&t1=%.9f", id, t0, t0+0.01*span)})
		case 9:
			mixed = append(mixed, request{url: fmt.Sprintf("/search?trace=%s&name=%s&rank=%d&limit=100", id, names[(i/20)%3], (i/20)%8)})
		case 19:
			mixed = append(mixed, request{url: "/trace/" + id + "/analyze"})
		default:
			mixed = append(mixed, pool[zipf.Uint64()])
		}
	}
	return cold, mixed
}

// viewers is the closed loop's client side: a fixed number of clients over
// one connection pool, each sending its next request when the previous
// reply has been read to the end.
type viewers struct {
	base    string
	client  *http.Client
	clients int
	chk     *checker
	tr      *tracer
	mu      sync.Mutex
	etags   map[string]string
}

// newViewers sizes the closed loop: never more than two clients, and not
// more than the machine has processors.
func newViewers(base string, chk *checker, tr *tracer) *viewers {
	clients := min(2, runtime.NumCPU())
	return &viewers{
		base:    base,
		clients: clients,
		chk:     chk,
		tr:      tr,
		etags:   map[string]string{},
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
}

// get fetches one URL the way a browser would, asking for gzip but reading
// the wire bytes as they are, and returns the reply's seconds. A status
// other than 200 or 304 is a failed operation.
func (v *viewers) get(parent int, url string, revalidate bool) (float64, error) {
	req, err := http.NewRequest("GET", v.base+url, nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Accept-Encoding", "gzip")
	if revalidate {
		v.mu.Lock()
		etag := v.etags[url]
		v.mu.Unlock()
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
	}
	sp := v.tr.begin(parent, "serve.request")
	start := time.Now()
	resp, err := v.client.Do(req)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	secs := since(start)
	v.tr.end(sp, n, 0)
	if err != nil {
		return 0, err
	}
	v.chk.check(resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNotModified,
		"serve: %s answered %d", url, resp.StatusCode)
	if etag := resp.Header.Get("ETag"); etag != "" {
		v.mu.Lock()
		v.etags[url] = etag
		v.mu.Unlock()
	}
	return secs, nil
}

// phase runs the requests as a closed loop, client c taking every
// request whose index is c modulo the client count, and returns each
// reply's milliseconds and the phase's wall seconds. One request in
// revalidateEvery carries If-None-Match (0 for none).
func (v *viewers) phase(parent int, name string, reqs []request, revalidateEvery int) ([]float64, float64, error) {
	sp := v.tr.begin(parent, "serve."+name)
	lat := make([]float64, len(reqs))
	errs := make([]error, v.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < v.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(reqs); i += v.clients {
				secs, err := v.get(sp, reqs[i].url, revalidateEvery > 0 && i%revalidateEvery == 0)
				if err != nil {
					errs[c] = err
					return
				}
				lat[i] = secs * 1e3
			}
		}(c)
	}
	wg.Wait()
	wall := since(start)
	v.tr.end(sp, 0, int64(len(reqs)))
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return lat, wall, nil
}

// counters reads the pilot_serve counters over /debug/vars.
func (v *viewers) counters() (map[string]int64, error) {
	resp, err := v.client.Get(v.base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var vars struct {
		PilotServe struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"pilot_serve"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return nil, fmt.Errorf("/debug/vars: %w", err)
	}
	return vars.PilotServe.Counters, nil
}

// startServer serves the repository on a loopback port until stop is
// called; stop returns when the server has shut down.
func startServer(repo string) (base string, stop func() error, err error) {
	srv, err := serve.New(serve.Config{RepoDir: repo})
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	return "http://" + ln.Addr().String(), func() error { cancel(); return <-done }, nil
}

// session runs one viewer session against a fresh server over the
// repository and records its samples.
func (s *serveSession) session(tr *tracer, m *meter) (journey float64, err error) {
	addr, stop, err := startServer(s.repo())
	if err != nil {
		return 0, err
	}
	v := newViewers(addr, s.chk, tr)
	defer func() {
		v.client.CloseIdleConnections()
		if serr := stop(); err == nil {
			err = serr
		}
	}()

	runtime.GC()
	m.start()
	start := time.Now()
	whole := tr.begin(0, "serve.session")

	connect := []request{{url: "/traces"}}
	for _, id := range s.ids {
		connect = append(connect, request{url: "/trace/" + id})
	}
	if _, _, err := v.phase(whole, "connect", connect, 0); err != nil {
		return 0, err
	}
	var c sessionCounters
	if c.afterConnect, err = v.counters(); err != nil {
		return 0, err
	}

	cold, _, err := v.phase(whole, "cold", s.cold, 0)
	if err != nil {
		return 0, err
	}
	if c.afterCold, err = v.counters(); err != nil {
		return 0, err
	}
	s.chk.check(c.afterCold["trace_decodes"] == int64(len(s.ids)),
		"serve: %d decodes for %d traces after the cold phase", c.afterCold["trace_decodes"], len(s.ids))
	s.chk.check(c.afterCold["tiles_rendered"]-c.afterConnect["tiles_rendered"] == int64(len(s.cold)),
		"serve: %d renders for %d cold tiles", c.afterCold["tiles_rendered"]-c.afterConnect["tiles_rendered"], len(s.cold))

	warm, _, err := v.phase(whole, "warm", s.cold, 4)
	if err != nil {
		return 0, err
	}
	if c.afterWarm, err = v.counters(); err != nil {
		return 0, err
	}
	s.chk.check(c.afterWarm["tiles_rendered"] == c.afterCold["tiles_rendered"],
		"serve: the warm phase rendered %d tiles", c.afterWarm["tiles_rendered"]-c.afterCold["tiles_rendered"])

	_, mixedWall, err := v.phase(whole, "mixed", s.mixed, 0)
	if err != nil {
		return 0, err
	}
	journey = since(start)
	tr.end(whole, 0, int64(len(connect)+2*len(s.cold)+len(s.mixed)))
	m.stop()
	if c.afterMixed, err = v.counters(); err != nil {
		return 0, err
	}
	s.last = c

	for _, ms := range cold {
		s.smp.add("tile_cold_ms", ms)
	}
	for _, ms := range warm {
		s.smp.add("tile_warm_ms", ms)
	}
	s.smp.add("session_req_per_s", float64(len(s.mixed))/mixedWall)

	if !s.checkedTiles {
		s.checkedTiles = true
		if err := s.checkTiles(v); err != nil {
			return 0, err
		}
	}
	return journey, nil
}

// checkTiles fetches the first tile of each shape uncompressed and checks
// that it is byte-equal to a direct render of the same window.
func (s *serveSession) checkTiles(v *viewers) error {
	files := map[string]*slog2.File{}
	for _, rq := range s.cold[:min(6, len(s.cold))] {
		f := files[rq.id]
		if f == nil {
			var err error
			if f, err = slog2.ReadFile(filepath.Join(s.repo(), rq.id+".slog2")); err != nil {
				return err
			}
			files[rq.id] = f
		}
		resp, err := http.Get(v.base + rq.url)
		if err != nil {
			return err
		}
		served, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		tr := &serve.Trace{ID: rq.id, File: f}
		direct := serve.RenderTileSVG(tr, rq.win, 0)
		if rq.format == "json" {
			if direct, err = serve.RenderTileJSON(tr, rq.win); err != nil {
				return err
			}
		}
		s.chk.check(bytes.Equal(served, direct), "serve: %s differs from a direct render (%d vs %d bytes)", rq.url, len(served), len(direct))
	}
	return nil
}

func (s *serveSession) rep(tr *tracer, m *meter) (float64, error) { return s.session(tr, m) }

// named adds the tile percentiles, taken over the tiles of every session so
// far, to the session rate. The p99 is reported when at least ten tiles lie
// beyond it, which a run of full length has; the highest percentile a
// shorter one allows is among the tails.
func (s *serveSession) named() map[string]metric {
	out := s.base.named()
	if cold := s.smp.get("tile_cold_ms"); len(cold) > 0 {
		out["tile_cold_p50_ms"] = metric{median(cold), "ms"}
		if p, _ := tailPercentile(len(cold)); p >= 99 {
			out["tile_cold_p99_ms"] = metric{percentile(cold, 99), "ms"}
		}
	}
	if warm := s.smp.get("tile_warm_ms"); len(warm) > 0 {
		out["tile_warm_p50_ms"] = metric{median(warm), "ms"}
	}
	return out
}

func (s *serveSession) artifacts() (string, string) {
	return filepath.Join(s.dir, "t0.clog2"), filepath.Join(s.dir, "t1.clog2")
}
