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

// rawLog encodes blocks as they are, behind a header of numRanks ranks and
// up to the end-log marker, with no Writer to refuse one that breaks the
// rule of a block (clog2.Block): a log written outside the tree.
func rawLog(numRanks int, blocks ...clog2.Block) []byte {
	log := clog2.AppendHeader(nil, numRanks)
	for _, b := range blocks {
		log = clog2.AppendBlockHeader(log, b.Rank, len(b.Records))
		for i := range b.Records {
			log, _ = clog2.AppendRecord(log, &b.Records[i])
		}
		log = append(log, byte(clog2.RecEndBlock))
	}
	return append(log, byte(clog2.RecEndLog))
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
	send := clog2.Record{Type: clog2.RecMsgEvt, Rank: 0, Time: 2.5, Dir: clog2.DirSend, Aux1: -5, Aux2: 1, Aux3: 8}
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
		log := rawLog(2,
			clog2.Block{Rank: 0, Records: []clog2.Record{{Type: clog2.RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Color: "green", Name: "PI_Write"}}},
			clog2.Block{Rank: 1, Records: []clog2.Record{evt(1, 1, 2), evt(1, 3, 3)}},
			clog2.Block{Rank: c.rank, Records: c.recs})
		clog := filepath.Join(t.TempDir(), "stray.clog2")
		if err := os.WriteFile(clog, log, 0o644); err != nil {
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
// file system's name limit, and so did one of 232 to 255 bytes, whose
// temporary file's name passed the limit. A 231-byte id registers.
func TestPipelineToRepoRefusesALongIDFirst(t *testing.T) {
	repoDir := t.TempDir()
	missing := filepath.Join(t.TempDir(), "never-read.clog2")
	for _, id := range []string{strings.Repeat("x", 256), strings.Repeat("x", 255), strings.Repeat("x", 232), "", "a/b", `a\b`, "..", ".hidden"} {
		if vis.ValidTraceID(id) {
			t.Errorf("ValidTraceID(%.20q) holds", id)
		}
		_, _, _, err := vis.PipelineToRepo(missing, repoDir, id, vis.ConvertOptions{})
		if err == nil || !strings.HasPrefix(err.Error(), "vis: invalid repository trace id") {
			t.Errorf("id of %d bytes: %v, want the id refused before the log is opened", len(id), err)
		}
	}
	longest := strings.Repeat("x", 231)
	if !vis.ValidTraceID(longest) {
		t.Fatal("a 231-byte id refused")
	}
	clog := filepath.Join(t.TempDir(), "run.clog2")
	if err := os.WriteFile(clog, rawLog(1, clog2.Block{Rank: 0, Records: []clog2.Record{
		{Type: clog2.RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Color: "green", Name: "PI_Write"},
		{Type: clog2.RecBareEvt, Time: 1, ID: 2}, {Type: clog2.RecBareEvt, Time: 2, ID: 3},
	}}), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := vis.PipelineToRepo(clog, repoDir, longest, vis.ConvertOptions{}); err != nil {
		t.Fatalf("a 231-byte id: %v", err)
	}
}

// A state end stamped +Inf (and one each NaN and -Inf) used to be counted
// by the profile and dropped by the analyzer, and then skipped by the one
// fold every reader shares. A stamp that is not finite breaks the rule of a
// block (clog2.Block) now: a Writer refuses the block by name, and the same
// block byte-built onto a good log is refused, by name, by the converter,
// the profile, the analyzer and PipelineToRepo, which registers nothing.
func TestPipelineToRepoNonFiniteTimestamps(t *testing.T) {
	evt := func(rank int32, time float64, etype int32) clog2.Record {
		return clog2.Record{Type: clog2.RecBareEvt, Rank: rank, Time: time, ID: etype}
	}
	good := []clog2.Block{
		{Rank: 0, Records: []clog2.Record{{Type: clog2.RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Color: "green", Name: "PI_Write"}}},
		{Rank: 1, Records: []clog2.Record{evt(1, 0, 2), evt(1, 0.5, 3)}},
	}
	for _, c := range []struct {
		blk  clog2.Block
		want string
	}{
		{clog2.Block{Rank: 0, Records: []clog2.Record{evt(0, 1, 2), evt(0, math.Inf(1), 3), evt(0, 2, 3)}},
			"clog2: a BareEvt record of rank 0 stamped +Inf"},
		{clog2.Block{Rank: 1, Records: []clog2.Record{evt(1, 1, 2), evt(1, math.NaN(), 3), evt(1, math.Inf(-1), 3), evt(1, 3, 3)}},
			"clog2: a BareEvt record of rank 1 stamped NaN"},
		{clog2.Block{Rank: 1, Records: []clog2.Record{evt(1, 1, 2), evt(1, math.Inf(-1), 3), evt(1, 3, 3)}},
			"clog2: a BareEvt record of rank 1 stamped -Inf"},
	} {
		w, err := clog2.NewWriter(io.Discard, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteBlock(c.blk.Rank, c.blk.Records); err == nil || err.Error() != c.want {
			t.Errorf("WriteBlock: %v, want %s", err, c.want)
		}
		raw := rawLog(2, append(good, c.blk)...)
		clog := filepath.Join(t.TempDir(), "inf.clog2")
		if err := os.WriteFile(clog, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := slog2.ConvertReader(bytes.NewReader(raw), vis.ConvertOptions{}); err == nil || err.Error() != c.want {
			t.Errorf("ConvertReader: %v, want %s", err, c.want)
		}
		if _, err := stats.ComputeProfile(bytes.NewReader(raw)); err == nil || err.Error() != c.want {
			t.Errorf("ComputeProfile: %v, want %s", err, c.want)
		}
		if _, err := analyze.AnalyzeFile(clog, analyze.Options{}); err == nil || err.Error() != "analyze: "+clog+": "+c.want {
			t.Errorf("AnalyzeFile: %v, want analyze: %s: %s", err, clog, c.want)
		}
		repoDir := t.TempDir()
		if _, _, _, err := vis.PipelineToRepo(clog, repoDir, "inf", vis.ConvertOptions{}); err == nil || err.Error() != c.want {
			t.Errorf("PipelineToRepo: %v, want %s", err, c.want)
		}
		if ents, err := os.ReadDir(repoDir); err != nil || len(ents) != 0 {
			t.Errorf("the repository holds %v after a refused registration (%v)", ents, err)
		}
	}
}

// A receive stamped +Inf used to become an arrow ending at +Inf: the file's
// End was +Inf and the SVG drew NaN and Inf coordinates. The converter then
// dropped the record and left the send unmatched. The stamp breaks the rule
// of a block now: a Writer refuses rank 1's block by name, and the converter
// refuses the log byte-built around it before it makes a drawable.
func TestConvertInfiniteReceive(t *testing.T) {
	blocks := []clog2.Block{{Rank: 0, Records: []clog2.Record{
		{Type: clog2.RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Color: "green", Name: "PI_Write"},
		{Type: clog2.RecBareEvt, Rank: 0, Time: 0, ID: 2},
		{Type: clog2.RecMsgEvt, Rank: 0, Time: 0.5, Dir: clog2.DirSend, Aux1: 1, Aux2: 1, Aux3: 8},
		{Type: clog2.RecBareEvt, Rank: 0, Time: 1, ID: 3},
	}}, {Rank: 1, Records: []clog2.Record{
		{Type: clog2.RecBareEvt, Rank: 1, Time: 0, ID: 2},
		{Type: clog2.RecMsgEvt, Rank: 1, Time: math.Inf(1), Dir: clog2.DirRecv, Aux1: 0, Aux2: 1, Aux3: 8},
		{Type: clog2.RecBareEvt, Rank: 1, Time: 2, ID: 3},
	}}}
	const want = "clog2: a MsgEvt record of rank 1 stamped +Inf"
	w, err := clog2.NewWriter(io.Discard, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBlock(0, blocks[0].Records); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBlock(1, blocks[1].Records); err == nil || err.Error() != want {
		t.Errorf("WriteBlock: %v, want %s", err, want)
	}
	if f, _, err := slog2.ConvertReader(bytes.NewReader(rawLog(2, blocks...)), vis.ConvertOptions{}); err == nil || err.Error() != want {
		t.Errorf("ConvertReader: a file %+v and %v, want %s", f, err, want)
	}
}
