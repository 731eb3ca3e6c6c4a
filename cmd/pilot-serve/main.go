// Command pilot-serve hosts a repository of SLOG-2 traces over HTTP:
// tile queries (time×rank window at a zoom level, JSON or SVG) answered
// by walking only the frames intersecting the viewport, the legend and
// search endpoints, the profile and verdict of each trace's registered
// raw CLOG-2, and a built-in browser viewer at /. Production posture:
// one LRU of decoded traces and rendered bodies under one byte budget
// (-cache-mb), with singleflight collapse, ETag revalidation, gzip,
// graceful shutdown on SIGINT/SIGTERM, expvar at /debug/vars and pprof
// at /debug/pprof/.
//
// Usage:
//
//	pilot-serve -repo DIR [-addr :8080] [-cache-mb N]
//	pilot-serve -repo DIR -smoke
//
// -smoke starts the server on an ephemeral port, runs an end-to-end
// client check (tiles byte-agree with a direct render, legend, search,
// ETag revalidation, corrupt-file handling, and for every trace with a
// registered raw log its profile, byte for byte the log's own, and a
// windowed profile and verdict; every reply fetched as gzip and as
// identity, the one inflating to the other), then exits; it is what
// `make smoke-serve` runs against the golden traces.
package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"repro/internal/jumpshot"
	"repro/internal/serve"
	"repro/internal/slog2"
	"repro/internal/stats"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		repoDir = flag.String("repo", "", "trace repository directory (required)")
		cacheMB = flag.Int64("cache-mb", 128, "budget of the LRU of decoded traces and rendered bodies, in MiB of cached bytes")
		smoke   = flag.Bool("smoke", false, "start on an ephemeral port, self-test, exit")
		quiet   = flag.Bool("q", false, "suppress per-error request logging")
	)
	flag.Parse()
	if *repoDir == "" || *cacheMB < 1 {
		fmt.Fprintln(os.Stderr, "usage: pilot-serve -repo DIR [-addr :8080] [-cache-mb N] [-smoke]")
		os.Exit(2)
	}

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	budget := *cacheMB << 20
	srv, err := serve.New(serve.Config{RepoDir: *repoDir, CacheBytes: budget, Logf: logf})
	if err != nil {
		log.Fatal(err)
	}

	if *smoke {
		if err := runSmoke(srv, *repoDir, budget); err != nil {
			log.Fatalf("smoke: FAIL: %v", err)
		}
		fmt.Println("smoke: ok")
		return
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	log.Printf("pilot-serve: serving %s on http://%s/", *repoDir, ln.Addr())
	if err := srv.Serve(ctx, ln); err != nil {
		log.Fatal(err)
	}
	log.Print("pilot-serve: drained, bye")
}

// runSmoke drives the server end to end through a real TCP client:
// every trace's tile must byte-agree with a direct Query+render, the
// legend and search endpoints must answer, ETag revalidation must 304,
// a corrupt file must come back as an HTTP error, not a dead server,
// every reply must inflate from gzip to the identity reply, the cache
// must hold something and stay inside budget bytes, and each trace must
// have been decoded once.
func runSmoke(srv *serve.Server, repoDir string, budget int64) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()
	gzipped := 0 // replies that came back gzip

	// The client sees the gzip layer: net/http would ask for gzip and
	// inflate it out of sight.
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	fetch := func(path, encoding string, hdr map[string]string) (*http.Response, []byte, error) {
		req, err := http.NewRequest("GET", base+path, nil)
		if err != nil {
			return nil, nil, err
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		req.Header.Set("Accept-Encoding", encoding)
		resp, err := client.Do(req)
		if err != nil {
			return nil, nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.Header.Get("Content-Encoding") == "gzip" {
			gzipped++
			var zr *gzip.Reader
			if zr, err = gzip.NewReader(bytes.NewReader(body)); err == nil {
				body, err = io.ReadAll(zr)
			}
		}
		return resp, body, err
	}
	// get fetches path as a gzip client and as an identity one: the same
	// status, and the gzip reply inflates to the identity reply's bytes.
	get := func(path string, hdr map[string]string) (*http.Response, []byte, error) {
		zresp, zbody, err := fetch(path, "gzip", hdr)
		if err != nil {
			return nil, nil, fmt.Errorf("%s as gzip: %v", path, err)
		}
		resp, body, err := fetch(path, "identity", hdr)
		if err != nil {
			return nil, nil, err
		}
		if zresp.StatusCode != resp.StatusCode || !bytes.Equal(zbody, body) {
			return nil, nil, fmt.Errorf("%s: gzip reply (%d, %d bytes inflated) differs from identity reply (%d, %d bytes)",
				path, zresp.StatusCode, len(zbody), resp.StatusCode, len(body))
		}
		return resp, body, nil
	}

	expect := func(want int, paths ...string) error {
		for _, path := range paths {
			resp, _, err := get(path, nil)
			if err != nil {
				return err
			}
			if resp.StatusCode != want {
				return fmt.Errorf("%s: status %d, want %d", path, resp.StatusCode, want)
			}
		}
		return nil
	}

	check := func() error {
		traces, err := srv.Repo().List()
		if err != nil {
			return err
		}
		if len(traces) == 0 {
			return fmt.Errorf("repository %s holds no .slog2 traces", repoDir)
		}
		for _, info := range traces {
			f, err := slog2.ReadFile(filepath.Join(repoDir, info.ID+".slog2"))
			if err != nil {
				return fmt.Errorf("%s: direct decode: %v", info.ID, err)
			}
			tr := &serve.Trace{ID: info.ID, File: f}
			mid := f.Start + (f.End-f.Start)/2
			win := jumpshot.Window{T0: f.Start, T1: mid, RankLo: 0, RankHi: -1}
			tileURL := fmt.Sprintf("/trace/%s/tile?t0=%v&t1=%v", info.ID, win.T0, win.T1)

			resp, body, err := get(tileURL, nil)
			if err != nil {
				return err
			}
			if resp.StatusCode != 200 {
				return fmt.Errorf("%s: tile status %d", info.ID, resp.StatusCode)
			}
			want, err := serve.RenderTileJSON(tr, win)
			if err != nil {
				return err
			}
			if !bytes.Equal(body, want) {
				return fmt.Errorf("%s: served tile differs from direct Query+render", info.ID)
			}
			etag := resp.Header.Get("ETag")
			if etag == "" {
				return fmt.Errorf("%s: tile has no ETag", info.ID)
			}
			resp, body, err = get(tileURL, map[string]string{"If-None-Match": etag})
			if err != nil {
				return err
			}
			if resp.StatusCode != 304 || len(body) != 0 {
				return fmt.Errorf("%s: revalidation got %d with %d bytes, want empty 304",
					info.ID, resp.StatusCode, len(body))
			}
			ok := []string{tileURL + "&format=svg&zoom=1", "/trace/" + info.ID + "/legend", "/search?trace=" + info.ID + "&limit=3"}
			windowed := []string{"tile", "legend"}
			if info.HasClog {
				// A registered raw log answers the profile, which is its own
				// byte for byte, and the windowed half of the API.
				p, err := stats.ComputeProfileFile(filepath.Join(repoDir, info.ID+".clog2"))
				if err != nil {
					return fmt.Errorf("%s: direct profile: %v", info.ID, err)
				}
				want, err := p.JSON()
				if err != nil {
					return err
				}
				resp, body, err := get("/trace/"+info.ID+"/profile", nil)
				if err != nil {
					return err
				}
				if resp.StatusCode != 200 || !bytes.Equal(body, want) {
					return fmt.Errorf("%s: profile (status %d, %d bytes) differs from the log's (%d bytes)",
						info.ID, resp.StatusCode, len(body), len(want))
				}
				window := fmt.Sprintf("?t0=%v&t1=%v", win.T0, win.T1)
				ok = append(ok, "/trace/"+info.ID+"/profile"+window, "/trace/"+info.ID+"/analyze"+window)
				windowed = append(windowed, "profile", "analyze")
				if err := expect(400, "/trace/"+info.ID+"/analyze?t0=5&t1=1"); err != nil {
					return err
				}
			}
			if err := expect(200, ok...); err != nil {
				return err
			}
			// An infinite bound on its own side is no bound; on the wrong
			// side it is an empty window, on every route alike, /search's
			// from and to included.
			for _, route := range windowed {
				base := "/trace/" + info.ID + "/" + route
				if err := errors.Join(
					expect(200, base+"?t0=-Inf", base+"?t1=Inf", base+"?t0=-Inf&t1=Inf"),
					expect(400, base+"?t0=Inf", base+"?t1=-Inf"),
				); err != nil {
					return err
				}
			}
			search := "/search?trace=" + info.ID
			if err := errors.Join(
				expect(200, search+"&from=-Inf", search+"&to=Inf", search+"&from=-Inf&to=Inf"),
				expect(400, search+"&from=Inf", search+"&to=-Inf", fmt.Sprintf("%s&from=%v&to=%v", search, mid+1, mid)),
			); err != nil {
				return err
			}
		}
		// Hostile input must be an HTTP error, never a dead server.
		if err := errors.Join(
			expect(404, "/trace/no-such-trace/tile"),
			expect(400, "/trace/"+traces[0].ID+"/tile?zoom=99"),
			expect(200, "/healthz"),
		); err != nil {
			return err
		}
		if gzipped == 0 {
			return fmt.Errorf("no reply came back gzip")
		}
		// The tiles above were drawn and compressed once each and are
		// cached; /debug/vars reads the same counters.
		m := srv.MetricsSnapshot()
		if raw, gz := m["tile_bytes_raw"], m["tile_bytes_gz"]; !(0 < gz && gz < raw) {
			return fmt.Errorf("tile_bytes_gz %d, tile_bytes_raw %d, want 0 < gz < raw", gz, raw)
		}
		if render, compress := m["tile_render_ns"], m["tile_compress_ns"]; !(render > 0 && compress > 0) {
			return fmt.Errorf("tile_render_ns %d, tile_compress_ns %d, want both above 0", render, compress)
		}
		if held := m["cache_bytes"]; !(0 < held && held <= budget) {
			return fmt.Errorf("cache_bytes %d, want 0 < bytes <= %d", held, budget)
		}
		if n := m["trace_decodes"]; n != int64(len(traces)) {
			return fmt.Errorf("trace_decodes %d for %d traces", n, len(traces))
		}
		return nil
	}

	checkErr := check()
	cancel()
	if err := <-done; err != nil && checkErr == nil {
		checkErr = fmt.Errorf("graceful shutdown: %v", err)
	}
	return checkErr
}
