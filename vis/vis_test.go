package vis_test

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analyze"
	"repro/internal/clog2"
	"repro/internal/jumpshot"
	"repro/internal/lab2"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/vis"
)

// runLab2 produces a fresh CLOG-2 for the pipeline tests.
func runLab2(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "lab2.clog2")
	cfg := lab2.Config{W: 3, NUM: 1000, Seed: 4}
	cfg.Core.Services = "j"
	cfg.Core.JumpshotPath = path
	cfg.Core.CheckLevel = 3
	if _, err := lab2.Run(cfg); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPipelineAllStages(t *testing.T) {
	clog := runLab2(t)
	dir := filepath.Dir(clog)
	slogPath := filepath.Join(dir, "out.slog2")
	svgPath := filepath.Join(dir, "out.svg")
	f, rep, err := vis.Pipeline(clog, slogPath, svgPath, vis.ConvertOptions{}, vis.View{Title: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.States == 0 || f.NumRanks != 4 {
		t.Fatalf("rep=%+v ranks=%d", rep, f.NumRanks)
	}
	for _, p := range []string{slogPath, svgPath} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s not written: %v", p, err)
		}
	}
	// Skipping stages works too.
	if _, _, err := vis.Pipeline(clog, "", "", vis.ConvertOptions{}, vis.View{}); err != nil {
		t.Fatal(err)
	}
	// SLOG-2 roundtrip through the facade.
	g, err := vis.ReadSLOG2(slogPath)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRanks != f.NumRanks {
		t.Fatalf("roundtrip ranks %d vs %d", g.NumRanks, f.NumRanks)
	}
}

func TestPipelineErrors(t *testing.T) {
	if _, _, err := vis.Pipeline("no-such-file.clog2", "", "", vis.ConvertOptions{}, vis.View{}); err == nil {
		t.Fatal("missing input accepted")
	}
	clog := runLab2(t)
	if _, _, err := vis.Pipeline(clog, "/no/such/dir/x.slog2", "", vis.ConvertOptions{}, vis.View{}); err == nil {
		t.Fatal("unwritable slog output accepted")
	}
	if _, _, err := vis.Pipeline(clog, "", "/no/such/dir/x.svg", vis.ConvertOptions{}, vis.View{}); err == nil {
		t.Fatal("unwritable svg output accepted")
	}
}

func TestFacadeRenderers(t *testing.T) {
	clog := runLab2(t)
	f, _, err := vis.ConvertFile(clog, vis.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s := vis.RenderASCII(f, vis.View{Width: 60}); !strings.Contains(s, "PI_MAIN") {
		t.Error("ascii facade broken")
	}
	if s := vis.RenderHTML(f, vis.View{}); !strings.Contains(s, "<!DOCTYPE html>") {
		t.Error("html facade broken")
	}
	if s := vis.RenderStatsSVG(f, f.Start, f.End, ""); !strings.Contains(s, "<svg") {
		t.Error("stats svg facade broken")
	}
	htmlPath := filepath.Join(t.TempDir(), "v.html")
	if err := vis.RenderHTMLFile(htmlPath, f, vis.View{}); err != nil {
		t.Fatal(err)
	}
	legend := vis.Legend(f, f.Start, f.End)
	vis.SortLegend(legend, "count")
	if out := vis.FormatLegend(legend); !strings.Contains(out, "count") {
		t.Error("legend facade broken")
	}
	stats := vis.Stats(f, f.Start, f.End)
	if out := vis.FormatStats(f, stats); out == "" {
		t.Error("stats facade broken")
	}
	if frac := vis.CategoryFraction(f, "Compute", f.Start, f.End); frac <= 0 {
		t.Errorf("compute fraction %v", frac)
	}
	if hits := vis.Search(f, vis.SearchOptions{Name: "arrow", Rank: -1}); len(hits) != 9 {
		t.Errorf("arrows = %d, want 9 (3 workers x 3 messages)", len(hits))
	}
	if r := vis.BusyOverlapRatio(f, []int{1, 2, 3}, f.Start, f.End); r < 0 || r > 1.2 {
		t.Errorf("overlap ratio %v", r)
	}
}

func TestPipelineToRepo(t *testing.T) {
	clog := runLab2(t)
	repoDir := t.TempDir()
	f, rep, p, err := vis.PipelineToRepo(clog, repoDir, "lab2-run", vis.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.States == 0 || p == nil || f.NumRanks != 4 {
		t.Fatalf("rep=%+v profile=%v ranks=%d", rep, p != nil, f.NumRanks)
	}
	// Whoever can read the log can read the trace: the files written
	// through a temporary file used to keep its 0600 beside the others' 0644.
	// The raw log carries its own table: nothing else is registered.
	if ents, err := os.ReadDir(repoDir); err != nil || len(ents) != 3 {
		t.Fatalf("the repository holds %d files (%v), want 3", len(ents), err)
	}
	var mode os.FileMode
	for _, name := range []string{"lab2-run.clog2", "lab2-run.profile.json", "lab2-run.slog2"} {
		info, err := os.Stat(filepath.Join(repoDir, name))
		if err != nil {
			t.Fatalf("%s not registered: %v", name, err)
		}
		if mode == 0 {
			mode = info.Mode()
		}
		if info.Mode() != mode {
			t.Errorf("%s has mode %v, lab2-run.clog2 has %v", name, info.Mode(), mode)
		}
	}
	// The registered trace must round-trip through the serve repository.
	repo, err := serve.NewRepo(repoDir, 2)
	if err != nil {
		t.Fatal(err)
	}
	infos, err := repo.List()
	if err != nil || len(infos) != 1 || infos[0].ID != "lab2-run" || !infos[0].HasProfile {
		t.Fatalf("repo list = %+v, %v", infos, err)
	}
	tr, err := repo.Open("lab2-run")
	if err != nil {
		t.Fatal(err)
	}
	if tr.File.NumRanks != f.NumRanks {
		t.Fatalf("served trace ranks %d vs %d", tr.File.NumRanks, f.NumRanks)
	}
	// Invalid ids and a missing repo dir must be rejected up front.
	for _, id := range []string{"", "a/b", "..", ".hidden"} {
		if _, _, _, err := vis.PipelineToRepo(clog, repoDir, id, vis.ConvertOptions{}); err == nil {
			t.Errorf("id %q accepted", id)
		}
	}
	if _, _, _, err := vis.PipelineToRepo(clog, filepath.Join(repoDir, "nope"), "x", vis.ConvertOptions{}); err == nil {
		t.Error("missing repo dir accepted")
	}
}

// A log with a state pair on a rank its header does not declare, and a
// send to a negative peer, used to register a trace pilot-serve answered
// 422 for: the converter wrote drawables its own reader rejects. They are
// dropped with a warning, and the registered trace serves its tile.
func TestPipelineToRepoOutOfRangeRankServes(t *testing.T) {
	clog := filepath.Join(t.TempDir(), "stray.clog2")
	fh, err := os.Create(clog)
	if err != nil {
		t.Fatal(err)
	}
	w, err := clog2.NewWriter(fh, 2)
	if err != nil {
		t.Fatal(err)
	}
	evt := func(rank int32, time float64, etype int32) clog2.Record {
		return clog2.Record{Type: clog2.RecBareEvt, Rank: rank, Time: time, ID: etype}
	}
	for _, blk := range [][]clog2.Record{
		{{Type: clog2.RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Color: "green", Name: "PI_Write"}},
		{evt(0, 1, 2), evt(0, 2, 3),
			{Type: clog2.RecMsgEvt, Rank: 0, Time: 1.5, Dir: clog2.DirSend, Aux1: -5, Aux2: 1, Aux3: 8}},
		{evt(1, 1, 2), evt(1, 3, 3), evt(7, 1, 2), evt(7, 2, 3)},
	} {
		if err := w.WriteBlock(blk[0].Rank, blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}

	repoDir := t.TempDir()
	_, rep, _, err := vis.PipelineToRepo(clog, repoDir, "stray", vis.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.States != 2 || rep.OutOfRange != 3 {
		t.Fatalf("report %+v", rep)
	}
	s, err := serve.New(serve.Config{RepoDir: repoDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/trace/stray/tile?t0=0&t1=4")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || bytes.Count(body, []byte(`"rank":`)) != 2 {
		t.Fatalf("tile of the registered trace: status %d, body %.200q", resp.StatusCode, body)
	}
}

// A state end stamped +Inf (and one each NaN and -Inf) used to be counted
// by the profile and dropped by the analyzer: the profile then carried an
// infinite duration, its JSON would not serialise and the whole log was
// refused ("vis: writing profile: json: unsupported value: +Inf"). Both
// now read the log through one fold, which skips such records: the log
// profiles, registers and serves, and the analyzer trusts the sidecar
// because the two record counts agree. The converter pairs states by the
// same policy, so the timeline holds the profile's two states where it
// used to pair rank 1's start with its NaN end and report three nesting
// errors.
func TestPipelineToRepoNonFiniteTimestamps(t *testing.T) {
	evt := func(rank int32, time float64, etype int32) clog2.Record {
		return clog2.Record{Type: clog2.RecBareEvt, Rank: rank, Time: time, ID: etype}
	}
	var raw bytes.Buffer
	w, err := clog2.NewWriter(&raw, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, blk := range [][]clog2.Record{
		{{Type: clog2.RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Color: "green", Name: "PI_Write"}},
		{evt(0, 1, 2), evt(0, math.Inf(1), 3), evt(0, 2, 3)},
		{evt(1, 1, 2), evt(1, math.NaN(), 3), evt(1, math.Inf(-1), 3), evt(1, 3, 3)},
	} {
		if err := w.WriteBlock(blk[0].Rank, blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	clog := filepath.Join(t.TempDir(), "inf.clog2")
	if err := os.WriteFile(clog, raw.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	prof, err := stats.ComputeProfile(bytes.NewReader(raw.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prof.JSON(); err != nil {
		t.Fatalf("profile does not serialise: %v", err)
	}
	if prof.Totals.Records != 4 || prof.Unpaired != 0 || len(prof.States) != 1 || prof.States[0].TotalSec != 3 {
		t.Fatalf("profile counts the non-finite records: %+v", prof)
	}

	repoDir := t.TempDir()
	_, crep, _, err := vis.PipelineToRepo(clog, repoDir, "inf", vis.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sf, err := vis.ReadSLOG2(filepath.Join(repoDir, "inf.slog2"))
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	states := sf.States(math.Inf(-1), math.Inf(1))
	for _, r := range states {
		total += r.D.Duration()
	}
	if len(states) != 2 || total != prof.States[0].TotalSec || crep.NestingErrors != 0 {
		t.Fatalf(".slog2: %d state(s) over %gs and %d nesting error(s); want the profile's 2 over %gs and none (%q)",
			len(states), total, crep.NestingErrors, prof.States[0].TotalSec, crep.Warnings)
	}
	rep, err := analyze.AnalyzeFile(filepath.Join(repoDir, "inf.clog2"), analyze.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ProfileSource != "sidecar" || rep.Records != prof.Totals.Records {
		t.Fatalf("analyzer: profile_source %q, %d record(s); want the sidecar and the profile's %d",
			rep.ProfileSource, rep.Records, prof.Totals.Records)
	}

	s, err := serve.New(serve.Config{RepoDir: repoDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/trace/inf/tile?t0=0&t1=4")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tile of the registered trace: status %d, body %.200q", resp.StatusCode, body)
	}
}

// A receive stamped +Inf used to become an arrow ending at +Inf: the file's
// End was +Inf and the SVG drew NaN and Inf coordinates. The converter now
// drops the record, as the fold does, and the send is left unmatched.
func TestConvertInfiniteReceive(t *testing.T) {
	var raw bytes.Buffer
	w, err := clog2.NewWriter(&raw, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, blk := range [][]clog2.Record{{
		{Type: clog2.RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Color: "green", Name: "PI_Write"},
		{Type: clog2.RecBareEvt, Rank: 0, Time: 0, ID: 2},
		{Type: clog2.RecMsgEvt, Rank: 0, Time: 0.5, Dir: clog2.DirSend, Aux1: 1, Aux2: 1, Aux3: 8},
		{Type: clog2.RecBareEvt, Rank: 0, Time: 1, ID: 3},
	}, {
		{Type: clog2.RecBareEvt, Rank: 1, Time: 0, ID: 2},
		{Type: clog2.RecMsgEvt, Rank: 1, Time: math.Inf(1), Dir: clog2.DirRecv, Aux1: 0, Aux2: 1, Aux3: 8},
		{Type: clog2.RecBareEvt, Rank: 1, Time: 2, ID: 3},
	}} {
		if err := w.WriteBlock(blk[len(blk)-1].Rank, blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, rep, err := vis.Convert(&raw, vis.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if f.Start != 0 || f.End != 2 || rep.Arrows != 0 || rep.UnmatchedSends != 1 {
		t.Fatalf("file over [%v, %v], %d arrow(s), %d unmatched send(s); want [0, 2], none and 1",
			f.Start, f.End, rep.Arrows, rep.UnmatchedSends)
	}
	if svg := jumpshot.AppendSVG(nil, f, vis.View{}); bytes.Contains(svg, []byte("NaN")) || bytes.Contains(svg, []byte("Inf")) {
		t.Fatalf("SVG draws a non-finite coordinate: %.300q", svg)
	}
}
