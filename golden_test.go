// Golden end-to-end snapshot tests and the stats cross-validation suite.
//
// lab2 and collisions run live under per-rank Manual clocks, so their
// CLOG-2 (and therefore SLOG-2 and profile JSON) bytes are reproducible
// run to run; any hot-path or stats change that perturbs the output
// fails loudly against the checked-in goldens. The thumbnail pipeline
// polls with PI_TrySelect/HasData, which makes its record stream depend
// on scheduling, so its golden is a checked-in CLOG-2 fixture instead of
// a live run. Regenerate all goldens with:
//
//	go test -run TestGolden -update .
package repro_test

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analyze"
	"repro/internal/clock"
	"repro/internal/clog2"
	"repro/internal/collisions"
	"repro/internal/core"
	"repro/internal/jumpshot"
	"repro/internal/lab2"
	"repro/internal/serve"
	"repro/internal/slog2"
	"repro/internal/stats"
	"repro/internal/thumbnail"
	"repro/vis"
)

var update = flag.Bool("update", false, "regenerate golden files under testdata/golden")

func goldenPath(name string) string { return filepath.Join("testdata", "golden", name) }

// compareGolden checks got against the golden file, or rewrites the
// golden when -update is set.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := goldenPath(name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run `go test -run TestGolden -update .`): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden (%d vs %d bytes); if the change is intended, regenerate with -update",
			name, len(got), len(want))
	}
}

// manualClocks builds one deterministic Manual clock per rank.
func manualClocks(n int) []clock.Source {
	cs := make([]clock.Source, n)
	for i := range cs {
		cs[i] = clock.NewManual(float64(i))
	}
	return cs
}

// runLab2Golden runs the lab2 example deterministically, returning the
// runtime for live-counter checks.
func runLab2Golden(t *testing.T, clog string) *core.Runtime {
	t.Helper()
	cfg := lab2.Config{W: 3, NUM: 2000, Seed: 7}
	cfg.Core.Services = "j"
	cfg.Core.JumpshotPath = clog
	cfg.Core.Metrics = true
	cfg.Core.Clocks = manualClocks(4)
	res, err := lab2.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Runtime
}

func runCollisionsGolden(t *testing.T, clog string) *core.Runtime {
	t.Helper()
	cfg := collisions.Config{Workers: 3, Rows: 200, Seed: 3}
	cfg.Core.Services = "j"
	cfg.Core.JumpshotPath = clog
	cfg.Core.Metrics = true
	cfg.Core.Clocks = manualClocks(4)
	res, err := collisions.RunFixed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Runtime
}

// snapshotArtifacts converts the CLOG-2 and computes the profile,
// returning (slogBytes, profileJSON).
func snapshotArtifacts(t *testing.T, clog string) ([]byte, []byte) {
	t.Helper()
	slogBytes, _ := convertBytes(t, clog, 1)
	p, err := stats.ComputeProfileFile(clog)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := p.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return slogBytes, pj
}

// analyzeGoldenJSON runs the pathology analyzer over a checked-in
// golden CLOG-2 (in place, beside its .profile.json, which the verdict
// must not read) and returns the verdict JSON. Golden runs are clean by
// construction: any finding here is a detector false positive.
func analyzeGoldenJSON(t *testing.T, name string) []byte {
	t.Helper()
	rep, err := analyze.AnalyzeFile(goldenPath(name), analyze.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Errorf("golden %s produced findings (detector false positive): %v", name, rep.Findings)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestGoldenLab2(t *testing.T) {
	clog := filepath.Join(t.TempDir(), "lab2.clog2")
	runLab2Golden(t, clog)
	raw, err := os.ReadFile(clog)
	if err != nil {
		t.Fatal(err)
	}
	slogBytes, profJSON := snapshotArtifacts(t, clog)
	compareGolden(t, "lab2.clog2", raw)
	compareGolden(t, "lab2.slog2", slogBytes)
	compareGolden(t, "lab2.profile.json", profJSON)
	compareGolden(t, "lab2.analyze.json", analyzeGoldenJSON(t, "lab2.clog2"))
}

func TestGoldenCollisions(t *testing.T) {
	clog := filepath.Join(t.TempDir(), "collisions.clog2")
	runCollisionsGolden(t, clog)
	raw, err := os.ReadFile(clog)
	if err != nil {
		t.Fatal(err)
	}
	slogBytes, profJSON := snapshotArtifacts(t, clog)
	compareGolden(t, "collisions.clog2", raw)
	compareGolden(t, "collisions.slog2", slogBytes)
	compareGolden(t, "collisions.profile.json", profJSON)
	compareGolden(t, "collisions.analyze.json", analyzeGoldenJSON(t, "collisions.clog2"))
}

// TestGoldenThumbnail pins the conversion and profile outputs for the
// thumbnail pipeline's checked-in CLOG-2 fixture. With -update the
// fixture itself is regenerated by a live run first (its bytes are
// scheduling-dependent, which is exactly why it is a fixture).
func TestGoldenThumbnail(t *testing.T) {
	fixture := goldenPath("thumbnail.clog2")
	if *update {
		clog := filepath.Join(t.TempDir(), "thumbnail.clog2")
		cfg := thumbnail.Config{Workers: 2, NumImages: 6, ImageW: 64, ImageH: 48, Seed: 9}
		cfg.Core.Services = "j"
		cfg.Core.JumpshotPath = clog
		if _, err := thumbnail.Run(cfg); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(clog)
		if err != nil {
			t.Fatal(err)
		}
		compareGolden(t, "thumbnail.clog2", raw)
	}
	if _, err := os.Stat(fixture); err != nil {
		t.Fatalf("missing fixture %s (run `go test -run TestGolden -update .`): %v", fixture, err)
	}
	slogBytes, profJSON := snapshotArtifacts(t, fixture)
	compareGolden(t, "thumbnail.slog2", slogBytes)
	compareGolden(t, "thumbnail.profile.json", profJSON)
	compareGolden(t, "thumbnail.analyze.json", analyzeGoldenJSON(t, "thumbnail.clog2"))
}

// TestGoldenTiles pins the tile renderers' bytes on the three golden
// traces: full span, a 1 % window and a three-rank cut as SVG and as
// JSON, an annotated view whose title needs every escape, one
// low-threshold view that takes the striped preview path, one RenderHTML
// page, and one JSON tile whose trace ID needs every escape JSON has.
// The JSON files were written by encoding/json; the renderers may be
// rewritten for speed, never for output.
func TestGoldenTiles(t *testing.T) {
	tileJSON := func(tr *serve.Trace, win jumpshot.Window) []byte {
		t.Helper()
		body, err := serve.RenderTileJSON(tr, win)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	for _, name := range []string{"lab2", "collisions", "thumbnail"} {
		f, err := slog2.ReadFile(goldenPath(name + ".slog2"))
		if err != nil {
			t.Fatal(err)
		}
		tr := &serve.Trace{ID: name, File: f}
		span := f.End - f.Start
		full := jumpshot.Window{T0: f.Start, T1: f.End, RankLo: 0, RankHi: -1}
		onePct := jumpshot.Window{T0: f.Start + 0.40*span, T1: f.Start + 0.41*span, RankLo: 0, RankHi: -1}
		cut := jumpshot.Window{T0: f.Start, T1: f.End, RankLo: 1, RankHi: 3}
		compareGolden(t, name+".tile-full.svg", serve.RenderTileSVG(tr, full, 0))
		compareGolden(t, name+".tile-1pct.svg", serve.RenderTileSVG(tr, onePct, 1))
		compareGolden(t, name+".tile-ranks.svg", serve.RenderTileSVG(tr, cut, 0))
		compareGolden(t, name+".tile-full.json", tileJSON(tr, full))
		compareGolden(t, name+".tile-1pct.json", tileJSON(tr, onePct))
		compareGolden(t, name+".tile-ranks.json", tileJSON(tr, cut))
		if name == "lab2" {
			escaped := &serve.Trace{ID: "lab2 <a> & \"b\" \\ \x01\t \u2028 \xff é", File: f}
			compareGolden(t, name+".tile-escaped.json", tileJSON(escaped, cut))
		}
		compareGolden(t, name+".tile-annotated.svg", []byte(jumpshot.RenderSVG(f, jumpshot.View{
			Title: name + ` & <verdicts> "quoted"`,
			Annotations: []jumpshot.Annotation{
				{Rank: -1, Label: "send-recv-imbalance ch5", Detail: `channel 5: 2 sends vs 1 recvs & "more"`},
				{Rank: 2, Time: f.Start + 0.5*span, Label: "barrier-straggler", Detail: "rank 2 <late>"},
			},
		})))
		if name == "thumbnail" {
			// The only golden with a real time span (lab2 and collisions
			// run under Manual clocks), so the only one with stripes.
			compareGolden(t, name+".tile-preview.svg", []byte(jumpshot.RenderSVG(f, jumpshot.View{PreviewThreshold: 8})))
		}
		if name == "lab2" {
			f.Warnings = append(f.Warnings, `Equal Drawables: <demo> & "warning"`)
			compareGolden(t, "lab2.page.html", []byte(jumpshot.RenderHTML(f, jumpshot.View{Title: "lab2 <golden>"})))
		}
	}
}

// chanTotals is one channel's independently recounted traffic.
type chanTotals struct {
	sends, recvs         int64
	sendBytes, recvBytes int64
}

// recountCLOG walks the raw CLOG-2 records directly — no stats code in
// the loop — and tallies message events per channel.
func recountCLOG(t *testing.T, path string) map[int]*chanTotals {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	br, err := clog2.NewBlockReader(f)
	if err != nil {
		t.Fatal(err)
	}
	chans := map[int]*chanTotals{}
	for {
		b, err := br.NextReuse(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := range b.Records {
			rec := &b.Records[i]
			if rec.Type != clog2.RecMsgEvt {
				continue
			}
			ct := chans[int(rec.Aux2)]
			if ct == nil {
				ct = &chanTotals{}
				chans[int(rec.Aux2)] = ct
			}
			if rec.Dir == clog2.DirSend {
				ct.sends++
				ct.sendBytes += int64(rec.Aux3)
			} else {
				ct.recvs++
				ct.recvBytes += int64(rec.Aux3)
			}
		}
	}
	return chans
}

// crossValidate asserts the three accountings agree exactly: the
// stats.Profile computed from the log, a naive recount of the raw
// records, and (when rt carries a collector) the live counters.
func crossValidate(t *testing.T, clog string, rt *core.Runtime) {
	t.Helper()
	p, err := stats.ComputeProfileFile(clog)
	if err != nil {
		t.Fatal(err)
	}
	recount := recountCLOG(t, clog)

	if len(p.Channels) != len(recount) {
		t.Errorf("profile has %d channels, recount has %d", len(p.Channels), len(recount))
	}
	var pSends, pBytes int64
	for _, c := range p.Channels {
		pSends += c.Sends
		pBytes += c.SendBytes
		rc := recount[c.Chan]
		if rc == nil {
			t.Errorf("profile channel %d missing from recount", c.Chan)
			continue
		}
		if c.Sends != rc.sends || c.SendBytes != rc.sendBytes ||
			c.Recvs != rc.recvs || c.RecvBytes != rc.recvBytes {
			t.Errorf("channel %d: profile %+v != recount %+v", c.Chan, c, *rc)
		}
	}
	if p.Totals.Sends != pSends || p.Totals.SendBytes != pBytes {
		t.Errorf("profile totals %+v disagree with per-channel sums (%d msgs, %d bytes)",
			p.Totals, pSends, pBytes)
	}

	mx := rt.Metrics()
	if mx == nil {
		t.Fatal("runtime has no metrics collector")
	}
	if got := mx.Total(stats.CtrMsgsSent); got != p.Totals.Sends {
		t.Errorf("live msgs_sent = %d, profile says %d", got, p.Totals.Sends)
	}
	if got := mx.Total(stats.CtrBytesSent); got != p.Totals.SendBytes {
		t.Errorf("live bytes_sent = %d, profile says %d", got, p.Totals.SendBytes)
	}
	if got := mx.Total(stats.CtrMsgsRecv); got != p.Totals.Recvs {
		t.Errorf("live msgs_recv = %d, profile says %d", got, p.Totals.Recvs)
	}
	if got := mx.Total(stats.CtrBytesRecv); got != p.Totals.RecvBytes {
		t.Errorf("live bytes_recv = %d, profile says %d", got, p.Totals.RecvBytes)
	}
	snap := mx.Snapshot()
	for _, cs := range snap.Channels {
		rc := recount[cs.Chan]
		if rc == nil {
			if cs.Sent != 0 || cs.Recvd != 0 {
				t.Errorf("live channel %d has traffic (%d/%d) but no trace records", cs.Chan, cs.Sent, cs.Recvd)
			}
			continue
		}
		if cs.Sent != rc.sends || cs.SentBytes != rc.sendBytes ||
			cs.Recvd != rc.recvs || cs.RecvdBytes != rc.recvBytes {
			t.Errorf("channel %d: live %+v != recount %+v", cs.Chan, cs, *rc)
		}
	}
}

// The live counters and the trace may never disagree — for every example.
func TestStatsCrossValidation(t *testing.T) {
	t.Run("lab2", func(t *testing.T) {
		clog := filepath.Join(t.TempDir(), "lab2.clog2")
		rt := runLab2Golden(t, clog)
		crossValidate(t, clog, rt)
	})
	t.Run("collisions", func(t *testing.T) {
		clog := filepath.Join(t.TempDir(), "collisions.clog2")
		rt := runCollisionsGolden(t, clog)
		crossValidate(t, clog, rt)
	})
	t.Run("thumbnail", func(t *testing.T) {
		// Live run each time: the thumbnail's record stream varies with
		// scheduling, but within one run the trace and the counters must
		// still agree exactly.
		clog := filepath.Join(t.TempDir(), "thumbnail.clog2")
		cfg := thumbnail.Config{Workers: 2, NumImages: 6, ImageW: 64, ImageH: 48, Seed: 9}
		cfg.Core.Services = "j"
		cfg.Core.JumpshotPath = clog
		cfg.Core.Metrics = true
		res, err := thumbnail.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		crossValidate(t, clog, res.Runtime)
	})
}

// The repository layout PipelineToRepo registers: the raw log copied
// byte for byte, the SLOG-2 beside it, and the log's profile as
// <id>.profile.json (vis.ProfilePath), whose channel totals match the trace.
func TestPipelineToRepoLayout(t *testing.T) {
	dir := t.TempDir()
	clog := filepath.Join(t.TempDir(), "run.clog2")
	runLab2Golden(t, clog)
	_, _, p, err := vis.PipelineToRepo(clog, dir, "run", vis.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(clog)
	if err != nil {
		t.Fatal(err)
	}
	if copied, err := os.ReadFile(filepath.Join(dir, "run.clog2")); err != nil || !bytes.Equal(copied, raw) {
		t.Fatalf("raw log not registered byte for byte (%v)", err)
	}
	slog := filepath.Join(dir, "run.slog2")
	sidecar := vis.ProfilePath(slog)
	if sidecar != filepath.Join(dir, "run.profile.json") {
		t.Fatalf("profile path = %s", sidecar)
	}
	onDisk, err := os.ReadFile(sidecar)
	if err != nil {
		t.Fatalf("profile not written: %v", err)
	}
	want, err := p.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Error("profile JSON differs from the returned profile")
	}
	if p.Totals.Sends == 0 {
		t.Error("profile saw no traffic")
	}
	if _, err := os.Stat(slog); err != nil {
		t.Errorf("SLOG-2 not written: %v", err)
	}
}

// TestGoldenViewer pins the bytes of the viewer's text, JSON and chart
// outputs that no tile golden covers, one file per golden trace: the
// legend under each sort key and over a window, the rank statistics as a
// table and as a chart, the ASCII timeline, the wait matrix, the critical
// path, the Chrome trace export, a search that matches everything, the
// busy-overlap ratio and the legend JSON the service answers. lab2 and collisions run under Manual clocks and span
// [0, 0], so only thumbnail exercises time (windows, durations, excl).
func TestGoldenViewer(t *testing.T) {
	for _, name := range []string{"lab2", "collisions", "thumbnail"} {
		f, err := slog2.ReadFile(goldenPath(name + ".slog2"))
		if err != nil {
			t.Fatal(err)
		}
		tr := &serve.Trace{ID: name, File: f}
		span := f.End - f.Start
		w0, w1 := f.Start+0.40*span, f.Start+0.60*span
		var b bytes.Buffer
		section := func(title, body string) {
			b.WriteString("== " + title + " ==\n")
			b.WriteString(body)
			if body != "" && body[len(body)-1] != '\n' {
				b.WriteByte('\n')
			}
		}
		for _, key := range []string{"name", "count", "incl", "excl"} {
			entries := jumpshot.Legend(f, f.Start, f.End)
			jumpshot.SortLegend(entries, key)
			section("legend -sort "+key, jumpshot.FormatLegend(entries))
		}
		section("legend window", jumpshot.FormatLegend(jumpshot.Legend(f, w0, w1)))
		section("stats", jumpshot.FormatStats(f, jumpshot.Stats(f, f.Start, f.End)))
		section("stats window", jumpshot.FormatStats(f, jumpshot.Stats(f, w0, w1)))
		section("stats svg", jumpshot.RenderStatsSVG(f, f.Start, f.End, ""))
		section("ascii", jumpshot.RenderASCII(f, jumpshot.View{Width: 100}))
		section("ascii window", jumpshot.RenderASCII(f, jumpshot.View{From: w0, To: w1, Width: 100}))
		section("waits", jumpshot.FormatWaitMatrix(jumpshot.WaitMatrix(f, f.Start, f.End)))
		section("critpath", jumpshot.FormatCriticalPath(jumpshot.CriticalPath(f)))
		chrome, err := jumpshot.RenderChromeTrace(f)
		if err != nil {
			t.Fatal(err)
		}
		section("chrome", string(chrome))
		section("search", jumpshot.FormatHits(jumpshot.Search(f, jumpshot.SearchOptions{Rank: -1, From: f.Start, To: f.End})))
		var workers []int
		for r := 1; r < f.NumRanks; r++ {
			workers = append(workers, r)
		}
		section("busy overlap", fmt.Sprintf("%.17g", jumpshot.BusyOverlapRatio(f, workers, f.Start, f.End)))
		for _, w := range [][2]float64{{f.Start, f.End}, {w0, w1}} {
			lj, err := serve.RenderLegendJSON(tr, w[0], w[1])
			if err != nil {
				t.Fatal(err)
			}
			section(fmt.Sprintf("legend json [%g, %g]", w[0], w[1]), string(lj))
		}
		compareGolden(t, name+".viewer.txt", b.Bytes())
	}
}
