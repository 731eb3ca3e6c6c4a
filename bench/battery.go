package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/analyze"
	"repro/internal/clog2"
	"repro/internal/fmtspec"
	"repro/internal/idx"
	"repro/internal/jpeglite"
	"repro/internal/jumpshot"
	"repro/internal/mpe"
	"repro/internal/mpi"
	"repro/internal/serve"
	"repro/internal/slog2"
	"repro/internal/stats"
	"repro/internal/thumbnail"
	"repro/vis"
)

// battery measures every layer from outside, one public call at a time,
// each under a span. The probes of the runtime layers need no input; the
// probes of the post-run layers run on the workload's own log, so the same
// metric reads a layer's fixed cost on a small log and its per-record cost
// on a large one.
type battery struct {
	tr  *tracer
	sc  scale
	dir string
	chk *checker
	out map[string]metric
	// checkStageSum holds vis.stage_sum_ratio to stageSumLow-stageSumHigh,
	// see checkStageSumBand.
	checkStageSum bool
}

// The stages of a registration called one by one must add up to this share
// of the single call.
const stageSumLow, stageSumHigh = 0.95, 1.05

// checkStageSumBand holds the pairs' ratios of staged to single registration
// to the band. A pair's ratio moves by several per cent on this box, so the
// median of six to sixteen cannot be held to a band of five: the run fails
// when the middle half of the ratios lies wholly outside the band, which
// stages that left something out, or did something twice, bring about, and
// says so when only the median does.
func (b *battery) checkStageSumBand(ratios []float64) {
	q1, q3 := quartiles(ratios)
	b.chk.check(q1 <= stageSumHigh && q3 >= stageSumLow,
		"vis.stage_sum_ratio: the quartiles %.3f and %.3f of %d pairs lie outside %v-%v", q1, q3, len(ratios), stageSumLow, stageSumHigh)
	if m := median(ratios); (m < stageSumLow || m > stageSumHigh) && q1 <= stageSumHigh && q3 >= stageSumLow {
		fmt.Fprintf(os.Stderr, "bench: vis.stage_sum_ratio %.3f is outside %v-%v, but the quartiles %.3f and %.3f of %d pairs are not: unresolved\n",
			m, stageSumLow, stageSumHigh, q1, q3, len(ratios))
	}
}

func (b *battery) set(name string, v float64) {
	for _, d := range perLayer {
		if d.Name == name {
			b.out[name] = metric{v, d.Unit}
			return
		}
	}
	panic("battery: undeclared per-layer metric " + name)
}

// probeRuns is how often a micro probe runs its loop; its figure is the
// median of the runs.
const probeRuns = 5

// span runs f under a span and returns its seconds.
func (b *battery) span(name string, f func() error) (float64, error) {
	sp := b.tr.begin(0, name)
	secs, err := timed(f)
	b.tr.end(sp, 0, 0)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return secs, nil
}

// medianOf runs f n times under spans and returns the median seconds.
func (b *battery) medianOf(n int, name string, f func() error) (float64, error) {
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		secs, err := b.span(name, f)
		if err != nil {
			return 0, err
		}
		xs = append(xs, secs)
	}
	return median(xs), nil
}

func (b *battery) run(w workload) error {
	clog, other := w.artifacts()
	steps := []func() error{
		b.fmtspec,
		b.mpi,
		b.mpeCalls,
		b.pilotCalls,
		b.mpeFinish,
		func() error { return b.clog2(clog) },
		func() error { return b.postRun(clog, other) },
		func() error { return b.serve(w, clog) },
		b.thumbnail,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

func (b *battery) fmtspec() error {
	n := b.sc.probe
	secs, err := b.medianOf(probeRuns, "fmtspec.parse", func() error {
		for i := 0; i < n; i++ {
			if _, err := fmtspec.Parse("%d"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.set("fmtspec.parse_ns", secs/float64(n)*1e9)

	specs, err := fmtspec.Parse("%d")
	if err != nil {
		return err
	}
	secs, err = b.medianOf(probeRuns, "fmtspec.encode", func() error {
		args := []any{0}
		for i := 0; i < n; i++ {
			args[0] = i
			if _, _, err := fmtspec.Encode(specs[0], args); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.set("fmtspec.encode_ns", secs/float64(n)*1e9)
	return nil
}

// mpi times raw Send/Recv round trips between two ranks of one world.
func (b *battery) mpi() error {
	n := max(b.sc.probe/10, 100)
	payload := make([]byte, 8)
	var world *mpi.World
	secs, err := b.medianOf(probeRuns, "mpi.roundtrips", func() error {
		world = mpi.NewWorld(2, mpi.Options{})
		errs := world.Run(func(r *mpi.Rank) error {
			peer := 1 - r.ID()
			for i := 0; i < n; i++ {
				if r.ID() == 0 {
					if err := r.Send(peer, 1, payload); err != nil {
						return err
					}
				}
				if _, err := r.Recv(peer, 1); err != nil {
					return err
				}
				if r.ID() == 1 {
					if err := r.Send(peer, 1, payload); err != nil {
						return err
					}
				}
			}
			return nil
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	traffic := world.TotalTraffic()
	b.chk.check(traffic.Sent == int64(2*n), "mpi: %d messages sent in %d round trips", traffic.Sent, n)
	b.set("mpi.roundtrip_ns", secs/float64(n)*1e9)
	b.set("mpi.msgs", float64(traffic.Sent))
	b.set("mpi.bytes", float64(traffic.SentBytes))
	return nil
}

// mpeCalls times the three logging calls one Pilot call makes.
func (b *battery) mpeCalls() error {
	n := b.sc.probe
	g := mpe.NewGroup(mpi.NewWorld(1, mpi.Options{}), true)
	sid := g.DescribeState("PI_Write", "green")
	eid := g.DescribeEvent("MsgDeparture", "white")
	l := g.Logger(0)
	// Recycling the arena every so often is the steady state a real run
	// reaches at Finish; without it the loop measures heap growth.
	const discardEvery = 1024
	loop := func(name string, call func()) float64 {
		secs, _ := b.medianOf(probeRuns, name, func() error {
			for i := 0; i < n; i++ {
				call()
				if i%discardEvery == discardEvery-1 {
					l.Discard()
				}
			}
			l.Discard()
			return nil
		})
		return secs / float64(n) * 1e9
	}
	start, cargo := []byte("line: bench.go:1"), []byte("chan: C1 val: 42")
	b.set("mpe.state_pair_ns", loop("mpe.state_pair", func() {
		l.StateStartBytes(sid, start)
		l.StateEndBytes(sid, nil)
	}))
	b.set("mpe.event_ns", loop("mpe.event", func() { l.EventBytes(eid, cargo) }))
	b.set("mpe.log_send_ns", loop("mpe.log_send", func() { l.LogSend(1, 2, 64) }))
	return nil
}

// pilotCalls prices one Pilot call with and without logging on a short
// ping-pong, and attributes what the layer probes do not explain to core:
// the call's own cost, and the glue between core and the logger.
func (b *battery) pilotCalls() error {
	sc := b.sc
	sc.roundTrips = max(sc.roundTrips/5, 100)
	p := &pingpong{base: base{sc: sc, chk: b.chk}}
	dir := filepath.Join(b.dir, "probe-pingpong")
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	if err := p.setup(dir, 1); err != nil {
		return err
	}
	for i := 0; i < 2*probeRuns; i++ {
		if _, err := p.rep(b.tr, &meter{}); err != nil {
			return err
		}
	}
	unlogged := median(p.smp.get("unlogged_call_us")) * 1e3
	logged := median(p.smp.get("logged_call_us")) * 1e3
	// A round trip is four Pilot calls; Parse is cached by the runtime, so
	// the per-call codec share is one Encode.
	b.set("core.call_self_ns", unlogged-b.out["mpi.roundtrip_ns"].Value/4-b.out["fmtspec.encode_ns"].Value)
	b.set("core.logging_glue_ns", logged-unlogged-b.out["mpe.state_pair_ns"].Value-b.out["mpe.log_send_ns"].Value)
	return nil
}

// mpeFinish times the collective wrap-up of eight ranks into a discarded
// CLOG-2 stream, plain and with the index builder riding along. The ranks
// meet at a barrier when they have logged, and rank 0, which merges, times
// its own Finish.
func (b *battery) mpeFinish() error {
	const ranks = 8
	perRank := max(b.sc.probe/ranks, 100)
	var written countingDiscard
	finish := func(indexed bool) (secs float64, err error) {
		name := "mpe.finish"
		if indexed {
			name = "mpe.finish_indexed"
		}
		w := mpi.NewWorld(ranks, mpi.Options{})
		g := mpe.NewGroup(w, true)
		sid := g.DescribeState("PI_Write", "green")
		errs := w.Run(func(r *mpi.Rank) error {
			l := g.Logger(r.ID())
			for j := 0; j < perRank; j++ {
				l.StateStart(sid, "line: bench.go:1")
				l.StateEnd(sid, "")
			}
			if err := r.Barrier(); err != nil {
				return err
			}
			call := func(out io.Writer) error {
				if indexed {
					_, err := l.FinishIndexed(out)
					return err
				}
				return l.Finish(out)
			}
			if r.ID() != 0 {
				return call(nil)
			}
			written = 0
			var err error
			secs, err = b.span(name, func() error { return call(&written) })
			return err
		})
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return secs, nil
	}
	// Seven pairs, each run back to back, and the median of their ratios:
	// see postRun.
	var plain, ratios []float64
	for i := 0; i < 7; i++ {
		p, err := finish(false)
		if err != nil {
			return err
		}
		x, err := finish(true)
		if err != nil {
			return err
		}
		plain = append(plain, p)
		ratios = append(ratios, x/p)
	}
	b.set("mpe.finish_s", median(plain))
	b.set("mpe.finish_records", float64(2*perRank*ranks))
	b.set("mpe.finish_mb", float64(written)/(1<<20))
	b.set("mpe.finish_idx_extra_pct", (median(ratios)-1)*100)
	return nil
}

type countingDiscard int64

func (c *countingDiscard) Write(p []byte) (int, error) {
	*c += countingDiscard(len(p))
	return len(p), nil
}

// clog2 scans the log with a bare BlockReader and writes every block back
// to a discarded stream.
func (b *battery) clog2(path string) error {
	size := float64(fileSize(path)) / (1 << 20)
	var records int64
	var encodeSecs float64
	scan := func(encode bool) func() error {
		return func() error {
			fh, err := os.Open(path)
			if err != nil {
				return err
			}
			defer fh.Close()
			br, err := clog2.NewBlockReader(fh)
			if err != nil {
				return err
			}
			w, err := clog2.NewWriter(io.Discard, br.NumRanks())
			if err != nil {
				return err
			}
			records = 0
			var buf []clog2.Record
			for {
				blk, err := br.NextReuse(buf)
				if err == io.EOF {
					return w.Close()
				}
				if err != nil {
					return err
				}
				records += int64(len(blk.Records))
				buf = blk.Records[:0]
				if encode {
					start := time.Now()
					if err := w.WriteBlock(blk.Rank, blk.Records); err != nil {
						return err
					}
					encodeSecs += since(start)
				}
			}
		}
	}
	decodeSecs, err := b.medianOf(3, "clog2.decode", scan(false))
	if err != nil {
		return err
	}
	if _, err := b.span("clog2.recode", scan(true)); err != nil {
		return err
	}
	b.set("clog2.decode_mb_s", size/decodeSecs)
	b.set("clog2.records", float64(records))
	b.set("clog2.encode_mb_s", size/encodeSecs)
	return nil
}

// postRun times the tools that run after the program on the log at clog:
// registration whole and stage by stage, SLOG-2 read and query, profile,
// index, verdict, diff against other, and the renderer.
func (b *battery) postRun(clog, other string) error {
	repo := filepath.Join(b.dir, "probe-repo")
	if err := os.Mkdir(repo, 0o755); err != nil {
		return err
	}
	size := fileSize(clog)
	sizeMB := float64(size) / (1 << 20)

	// The whole call and its stages called one by one, in pairs: the two of
	// a pair run back to back, so their ratio is not moved by a machine that
	// is slower in one minute than in the next, and the median sheds the
	// pairs that a neighbour hit on one side. Which of the two goes first
	// alternates, both start from a collected heap, and a registration before
	// the first pair creates the files, so that every timed one overwrites
	// them. Six pairs, and on a small log as many more, up to sixteen, as fit
	// six seconds.
	if _, _, _, err := vis.PipelineToRepo(clog, repo, "probe", vis.ConvertOptions{}); err != nil {
		return err
	}
	var whole, ratios, passes []float64
	first := len(b.tr.spans)
	for i, spent := 0, 0.0; i < 6 || i < 16 && spent < 6; i++ {
		var secs, staged float64
		single := func() (err error) {
			runtime.GC()
			read0 := bytesRead()
			secs, err = b.span("vis.pipeline_to_repo", func() error {
				_, _, _, err := vis.PipelineToRepo(clog, repo, "probe", vis.ConvertOptions{})
				return err
			})
			passes = append(passes, float64(bytesRead()-read0)/float64(size))
			return err
		}
		stages := func() (err error) {
			runtime.GC()
			_, _, staged, err = register(b.tr, 0, clog, repo, "probe")
			return err
		}
		order := []func() error{single, stages}
		if i%2 == 1 {
			order = []func() error{stages, single}
		}
		for _, f := range order {
			if err := f(); err != nil {
				return err
			}
		}
		whole = append(whole, secs)
		ratios = append(ratios, staged/secs)
		spent += secs + staged
	}
	stage := map[string][]float64{}
	var records int64
	for _, s := range b.tr.spans[first:] {
		stage[s.Name] = append(stage[s.Name], s.dur())
		if s.Name == "slog2.convert" {
			records = s.Records
		}
	}
	b.set("vis.pipeline_to_repo_s", median(whole))
	b.set("vis.decode_passes", median(passes))
	ratio := median(ratios)
	b.set("vis.stage_sum_ratio", ratio)
	if b.checkStageSum {
		b.checkStageSumBand(ratios)
	}
	b.set("slog2.convert_s", median(stage["slog2.convert"]))
	b.set("slog2.convert_mrec_s", float64(records)/1e6/median(stage["slog2.convert"]))
	b.set("slog2.write_s", median(stage["slog2.write"]))
	b.set("stats.profile_s", median(stage["stats.profile"]))
	b.set("idx.build_s", median(stage["idx.build"]))

	slogPath := filepath.Join(repo, "probe.slog2")
	rawPath := filepath.Join(repo, "probe.clog2")
	var f *slog2.File
	secs, err := b.medianOf(3, "slog2.read", func() (err error) {
		f, err = slog2.ReadFile(slogPath)
		return err
	})
	if err != nil {
		return err
	}
	b.set("slog2.read_s", secs)
	b.set("slog2.file_mb", float64(fileSize(slogPath))/(1<<20))

	// Twenty 1%-span windows, the same for every probe that takes one.
	rng := rand.New(rand.NewSource(1))
	span := f.End - f.Start
	windows := make([]float64, 20)
	for i := range windows {
		windows[i] = f.Start + rng.Float64()*0.99*span
	}
	each := func(name string, f func(t0, t1 float64) error) (float64, error) {
		i := 0
		return b.medianOf(len(windows), name, func() error {
			t0 := windows[i]
			i++
			return f(t0, t0+span/100)
		})
	}
	if secs, err = each("slog2.query", func(t0, t1 float64) error { f.Query(t0, t1); return nil }); err != nil {
		return err
	}
	b.set("slog2.query_us", secs*1e6)
	if secs, err = each("jumpshot.tile", func(t0, t1 float64) error {
		jumpshot.Tile(f, jumpshot.Window{T0: t0, T1: t1, RankLo: 0, RankHi: -1})
		return nil
	}); err != nil {
		return err
	}
	b.set("jumpshot.tile_1pct_ms", secs*1e3)
	tr := &serve.Trace{ID: "probe", File: f}
	if secs, err = each("serve.render_tile", func(t0, t1 float64) error {
		serve.RenderTileSVG(tr, jumpshot.Window{T0: t0, T1: t1, RankLo: 0, RankHi: -1}, 0)
		return nil
	}); err != nil {
		return err
	}
	b.set("serve.render_tile_ms", secs*1e3)

	if secs, err = each("stats.window_indexed", func(t0, t1 float64) error {
		_, indexed, err := stats.ComputeProfileFileWindowed(rawPath, t0, t1)
		if err == nil && !indexed {
			err = fmt.Errorf("no index beside %s", rawPath)
		}
		return err
	}); err != nil {
		return err
	}
	b.set("stats.window_indexed_ms", secs*1e3)
	if secs, err = b.medianOf(3, "stats.window_scan", func() error {
		fh, err := os.Open(rawPath)
		if err != nil {
			return err
		}
		defer fh.Close()
		_, err = stats.ComputeProfileWindowed(fh, windows[0], windows[0]+span/100)
		return err
	}); err != nil {
		return err
	}
	b.set("stats.window_scan_ms", secs*1e3)

	var ix *idx.Index
	if secs, err = b.medianOf(20, "idx.load", func() (err error) {
		ix, err = idx.Load(rawPath)
		return err
	}); err != nil {
		return err
	}
	b.set("idx.load_us", secs*1e6)
	b.set("idx.file_kb", float64(fileSize(idx.SidecarPath(rawPath)))/1024)
	visited := 0
	for _, t0 := range windows {
		q := idx.MatchAll()
		q.T0, q.T1, q.IncludeDefs = t0, t0+span/100, true
		visited += len(ix.Select(q))
	}
	b.set("idx.visited_ratio", float64(visited)/float64(len(windows)*len(ix.Blocks)))

	if secs, err = b.medianOf(3, "analyze.verdict", func() error {
		_, err := analyze.AnalyzeFile(rawPath, analyze.Options{})
		return err
	}); err != nil {
		return err
	}
	b.set("analyze.verdict_s", secs)
	b.set("analyze.verdict_mb_s", sizeMB/secs)

	runtime.GC()
	alloc0 := totalAlloc()
	if secs, err = b.span("analyze.diff", func() error {
		_, err := analyze.DiffFiles(clog, other, analyze.DiffOptions{})
		return err
	}); err != nil {
		return err
	}
	b.set("analyze.diff_alloc_mb", float64(totalAlloc()-alloc0)/(1<<20))
	b.set("analyze.diff_s", secs)
	b.set("analyze.diff_mb_s", (sizeMB+float64(fileSize(other))/(1<<20))/secs)

	var svg string
	if secs, err = b.span("jumpshot.render_full", func() error {
		svg = jumpshot.RenderSVG(f, jumpshot.View{})
		return nil
	}); err != nil {
		return err
	}
	b.set("jumpshot.render_full_ms", secs*1e3)
	b.set("jumpshot.svg_mb", float64(len(svg))/(1<<20))
	if secs, err = b.medianOf(3, "jumpshot.legend", func() error {
		jumpshot.Legend(f, f.Start, f.End)
		return nil
	}); err != nil {
		return err
	}
	b.set("jumpshot.legend_ms", secs*1e3)
	if secs, err = b.medianOf(3, "jumpshot.search", func() error {
		jumpshot.Search(f, jumpshot.SearchOptions{Name: "PI_Read", Rank: -1, Limit: 1000})
		return nil
	}); err != nil {
		return err
	}
	b.set("jumpshot.search_ms", secs*1e3)
	return nil
}

// serve reads the server's own counters over a viewer session. The
// serve_session workload has just run one under the tracer; the others get
// a short session over a repository holding their log.
func (b *battery) serve(w workload, clog string) error {
	s, ok := w.(*serveSession)
	if !ok {
		sc := b.sc
		sc.traces, sc.coldTiles, sc.mixedReqs = 1, 24, 60
		s = &serveSession{base: base{sc: sc, chk: b.chk, dir: b.dir}, ids: []string{"probe"}}
		// The post-run probes registered the log as "probe".
		if err := os.Rename(filepath.Join(b.dir, "probe-repo"), s.repo()); err != nil {
			return err
		}
		f, err := slog2.ReadFile(filepath.Join(s.repo(), "probe.slog2"))
		if err != nil {
			return err
		}
		spans := map[string][2]float64{"probe": {f.Start, f.End}}
		s.cold, s.mixed = sessionScript(rand.New(rand.NewSource(1)), s.ids, spans, sc.coldTiles, sc.mixedReqs)
		if _, err := s.session(b.tr, &meter{}); err != nil {
			return err
		}
	}
	c := s.last
	hits := c.afterMixed["tile_cache_hits"] - c.afterWarm["tile_cache_hits"]
	misses := c.afterMixed["tile_cache_misses"] - c.afterWarm["tile_cache_misses"]
	b.set("serve.tile_hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
	b.set("serve.decodes", float64(c.afterCold["trace_decodes"]))
	b.set("serve.tiles_shared", float64(c.afterMixed["tiles_singleflight_shared"]))
	b.set("serve.not_modified", float64(c.afterMixed["responses_304"]))
	b.set("serve.bytes_sent_mb", float64(c.afterMixed["bytes_sent"])/(1<<20))
	b.set("serve.errors", float64(c.afterMixed["errors"]))

	// The HTTP floor: what a reply costs when the server has nothing to do.
	addr, stop, err := startServer(s.repo())
	if err != nil {
		return err
	}
	v := newViewers(addr, b.chk, b.tr)
	secs, err := b.medianOf(50, "serve.healthz", func() error {
		_, err := v.get(0, "/healthz", false)
		return err
	})
	v.client.CloseIdleConnections()
	if serr := stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	b.set("serve.http_floor_ms", secs*1e3)
	return nil
}

// thumbnail runs a short batch through the demonstration program with and
// without logging, and the same images through the codec outside Pilot.
func (b *battery) thumbnail() error {
	dir := filepath.Join(b.dir, "probe-thumbnail")
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	t := &thumbnailRun{base: base{sc: b.sc, chk: b.chk, dir: dir}, seed: 1}
	images := b.sc.warmImages
	var logged, unlogged, wrapUp []float64
	for i := 0; i < 3; i++ {
		for _, services := range []string{"", "j"} {
			var res *thumbnail.Result
			if _, err := b.span("thumbnail.run", func() (err error) {
				res, err = t.run(images, services)
				return err
			}); err != nil {
				return err
			}
			if services == "" {
				unlogged = append(unlogged, res.Elapsed.Seconds())
			} else {
				logged = append(logged, res.Elapsed.Seconds())
				wrapUp = append(wrapUp, res.WrapUp.Seconds()*1e3)
			}
		}
	}
	b.set("thumbnail.run_s", median(logged))
	b.set("thumbnail.run_unlogged_s", median(unlogged))
	b.set("thumbnail.wrapup_ms", median(wrapUp))

	files := make([][]byte, images)
	for i := range files {
		files[i] = jpeglite.Encode(jpeglite.Synthetic(192, 128, 1+int64(i)), 75)
	}
	secs, err := b.medianOf(3, "jpeglite.codec", func() error {
		for _, data := range files {
			im, err := jpeglite.Decode(data)
			if err != nil {
				return err
			}
			jpeglite.Encode(im.CropCenter(thumbnail.CropFraction).Downsample(thumbnail.DownsampleStep), 75)
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.set("jpeglite.codec_s", secs)
	return nil
}
