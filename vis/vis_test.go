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
	"repro/internal/slog2"
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
	g, err := slog2.ReadFile(slogPath)
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
	if s := jumpshot.RenderASCII(f, vis.View{Width: 60}); !strings.Contains(s, "PI_MAIN") {
		t.Error("ascii facade broken")
	}
	if s := jumpshot.RenderHTML(f, vis.View{}); !strings.Contains(s, "<!DOCTYPE html>") {
		t.Error("html facade broken")
	}
	if s := jumpshot.RenderStatsSVG(f, f.Start, f.End, ""); !strings.Contains(s, "<svg") {
		t.Error("stats svg facade broken")
	}
	htmlPath := filepath.Join(t.TempDir(), "v.html")
	if err := vis.RenderHTMLFile(htmlPath, f, vis.View{}); err != nil {
		t.Fatal(err)
	}
	legend := jumpshot.Legend(f, f.Start, f.End)
	jumpshot.SortLegend(legend, "count")
	if out := jumpshot.FormatLegend(legend); !strings.Contains(out, "count") {
		t.Error("legend facade broken")
	}
	stats := jumpshot.Stats(f, f.Start, f.End)
	if out := jumpshot.FormatStats(f, stats); out == "" {
		t.Error("stats facade broken")
	}
	if frac := jumpshot.CategoryFraction(f, "Compute", f.Start, f.End); frac <= 0 {
		t.Errorf("compute fraction %v", frac)
	}
	if hits := jumpshot.Search(f, jumpshot.SearchOptions{Name: "arrow", Rank: -1}); len(hits) != 9 {
		t.Errorf("arrows = %d, want 9 (3 workers x 3 messages)", len(hits))
	}
	if r := jumpshot.BusyOverlapRatio(f, []int{1, 2, 3}, f.Start, f.End); r < 0 || r > 1.2 {
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
	repo, err := serve.NewRepo(repoDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	infos, err := repo.List()
	if err != nil || len(infos) != 1 || infos[0].ID != "lab2-run" || !infos[0].HasClog {
		t.Fatalf("repo list = %+v, %v", infos, err)
	}
	// The registered trace's profile is its log's: the one returned.
	s, err := serve.New(serve.Config{RepoDir: repoDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/trace/lab2-run/profile")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want, _ := p.JSON(); resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("profile of the registered trace: status %d, %d bytes; want the log's %d", resp.StatusCode, len(body), len(want))
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
// send to a negative peer, used to register a trace whose timeline had
// dropped both with a warning while its profile counted them. No writer
// writes such a log: the Writer refuses each block by name, and a log built
// byte by byte around them is refused by the reader, so PipelineToRepo
// fails naming the block and registers nothing.
func TestPipelineToRepoRefusesOutOfRangeRanks(t *testing.T) {
	evt := func(rank int32, time float64, etype int32) clog2.Record {
		return clog2.Record{Type: clog2.RecBareEvt, Rank: rank, Time: time, ID: etype}
	}
	send := clog2.Record{Type: clog2.RecMsgEvt, Rank: 0, Time: 1.5, Dir: clog2.DirSend, Aux1: -5, Aux2: 1, Aux3: 8}
	for _, c := range []struct {
		rank int32
		recs []clog2.Record
		want string
	}{
		{0, []clog2.Record{evt(0, 1, 2), evt(0, 2, 3), send}, "clog2: a message half of rank 0 names peer rank -5, outside [0,2)"},
		{7, []clog2.Record{evt(7, 1, 2), evt(7, 2, 3)}, "clog2: a block of rank 7 in a log of 2 ranks"},
	} {
		w, err := clog2.NewWriter(io.Discard, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteBlock(c.rank, c.recs); err == nil || err.Error() != c.want {
			t.Errorf("WriteBlock(%d): %v, want %s", c.rank, err, c.want)
		}
		log := clog2.AppendHeader(nil, 2)
		for _, blk := range []struct {
			rank int32
			recs []clog2.Record
		}{
			{0, []clog2.Record{{Type: clog2.RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Color: "green", Name: "PI_Write"}}},
			{1, []clog2.Record{evt(1, 1, 2), evt(1, 3, 3)}},
			{c.rank, c.recs},
		} {
			log = clog2.AppendBlockHeader(log, blk.rank, len(blk.recs))
			for i := range blk.recs {
				log, _ = clog2.AppendRecord(log, &blk.recs[i])
			}
			log = append(log, byte(clog2.RecEndBlock))
		}
		clog := filepath.Join(t.TempDir(), "stray.clog2")
		if err := os.WriteFile(clog, append(log, byte(clog2.RecEndLog)), 0o644); err != nil {
			t.Fatal(err)
		}
		repoDir := t.TempDir()
		if _, _, _, err := vis.PipelineToRepo(clog, repoDir, "stray", vis.ConvertOptions{}); err == nil || err.Error() != c.want {
			t.Errorf("PipelineToRepo of a block of rank %d: %v, want %s", c.rank, err, c.want)
		}
		if ents, err := os.ReadDir(repoDir); err != nil || len(ents) != 0 {
			t.Errorf("the repository holds %v after a refused registration (%v)", ents, err)
		}
	}
}

// A trace id is held to the one rule pilot-serve holds it to
// (vis.ValidTraceID) before the log is read: a 256-byte id used to pass
// PipelineToRepo's own check, convert the whole log and fail only at the
// file system's name limit.
func TestPipelineToRepoRefusesALongIDFirst(t *testing.T) {
	repoDir := t.TempDir()
	missing := filepath.Join(t.TempDir(), "never-read.clog2")
	for _, id := range []string{strings.Repeat("x", 256), "", "a/b", `a\b`, "..", ".hidden"} {
		if vis.ValidTraceID(id) {
			t.Errorf("ValidTraceID(%.20q) holds", id)
		}
		_, _, _, err := vis.PipelineToRepo(missing, repoDir, id, vis.ConvertOptions{})
		if err == nil || !strings.HasPrefix(err.Error(), "vis: invalid repository trace id") {
			t.Errorf("id of %d bytes: %v, want the id refused before the log is opened", len(id), err)
		}
	}
	if !vis.ValidTraceID(strings.Repeat("x", 255)) {
		t.Error("a 255-byte id refused")
	}
}

// A state end stamped +Inf (and one each NaN and -Inf) used to be counted
// by the profile and dropped by the analyzer: the profile then carried an
// infinite duration, its JSON would not serialise and the whole log was
// refused ("vis: writing profile: json: unsupported value: +Inf"). Both
// now read the log through one fold, which skips such records: the log
// profiles, registers and serves, and the analyzer counts the profile's
// records. The converter pairs states by the
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
	sf, err := slog2.ReadFile(filepath.Join(repoDir, "inf.slog2"))
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
	// The repository keeps the profile beside the raw log; the verdict
	// reads the log alone and counts the same records.
	want, err := analyze.Analyze(bytes.NewReader(raw.Bytes()), analyze.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := rep.JSON()
	if wantJSON, _ := want.JSON(); rep.Records != prof.Totals.Records || !bytes.Equal(got, wantJSON) {
		t.Fatalf("analyzer: %d record(s), want the profile's %d; verdict from the repository differs from the log's:\n%s",
			rep.Records, prof.Totals.Records, got)
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
	f, rep, err := slog2.ConvertReader(&raw, vis.ConvertOptions{})
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
