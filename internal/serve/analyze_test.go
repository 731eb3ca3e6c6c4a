package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analyze"
)

// The served verdict must byte-agree with a direct analyze.AnalyzeFile
// over the registered raw log, for all three golden traces.
func TestAnalyzeAgreesWithDirectRun(t *testing.T) {
	_, ts := newTestServer(t, goldenDir)
	for _, id := range goldenIDs {
		resp, body := get(t, ts.URL+"/trace/"+id+"/analyze", nil)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", id, resp.StatusCode, body)
		}
		rep, err := analyze.AnalyzeFile(filepath.Join(goldenDir, id+".clog2"), analyze.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("%s: served verdict differs from direct analysis", id)
		}
		var parsed analyze.Report
		if err := json.Unmarshal(body, &parsed); err != nil {
			t.Fatalf("%s: served verdict is not valid JSON: %v", id, err)
		}
		if parsed.Schema != analyze.Schema {
			t.Fatalf("%s: schema %q", id, parsed.Schema)
		}
		if !parsed.Clean {
			t.Fatalf("%s: golden run reported findings: %+v", id, parsed.Findings)
		}
	}
}

// Verdicts are cached by raw-log generation: a repeat request must not
// recompute, and a matching If-None-Match must answer 304.
func TestAnalyzeCachedAndRevalidated(t *testing.T) {
	s, ts := newTestServer(t, goldenDir)
	url := ts.URL + "/trace/lab2/analyze"
	resp, _ := get(t, url, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on analyze response")
	}
	computed := s.MetricsSnapshot()["analyzes_computed"]
	if computed != 1 {
		t.Fatalf("analyzes_computed = %d after one request", computed)
	}
	resp, _ = get(t, url, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("repeat status %d", resp.StatusCode)
	}
	if got := s.MetricsSnapshot()["analyzes_computed"]; got != 1 {
		t.Fatalf("analyzes_computed = %d after repeat (cache miss)", got)
	}
	resp, body := get(t, url, map[string]string{"If-None-Match": etag})
	if resp.StatusCode != 304 {
		t.Fatalf("revalidation status %d, want 304", resp.StatusCode)
	}
	if len(body) != 0 {
		t.Fatalf("304 carried %d body bytes", len(body))
	}
}

// Windowed analyze queries restrict the pass like the windowed profile.
func TestAnalyzeWindowed(t *testing.T) {
	_, ts := newTestServer(t, goldenDir)
	resp, body := get(t, ts.URL+"/trace/lab2/analyze?t0=0&t1=1e9", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rep analyze.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Window == nil || rep.Window.T0 == nil || rep.Window.T1 == nil {
		t.Fatalf("window not echoed: %+v", rep.Window)
	}
	want, err := analyze.AnalyzeFileWindowed(filepath.Join(goldenDir, "lab2.clog2"), 0, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := want.JSON()
	if !bytes.Equal(body, wantJSON) {
		t.Fatal("windowed served verdict differs from direct analysis")
	}
	if resp, _ := get(t, ts.URL+"/trace/lab2/analyze?t0=nan", nil); resp.StatusCode != 400 {
		t.Fatalf("bad t0 status %d, want 400", resp.StatusCode)
	}
	// [0, 0] is a window like any other: the verdict counts the records
	// the windowed profile counts, not the whole run's.
	_, body = get(t, ts.URL+"/trace/thumbnail/analyze?t0=0&t1=0", nil)
	var point struct{ Records int64 }
	if err := json.Unmarshal(body, &point); err != nil {
		t.Fatal(err)
	}
	_, body = get(t, ts.URL+"/trace/thumbnail/profile?t0=0&t1=0", nil)
	var prof struct{ Totals struct{ Records int64 } }
	if err := json.Unmarshal(body, &prof); err != nil {
		t.Fatal(err)
	}
	if point.Records != prof.Totals.Records {
		t.Fatalf("[0, 0]: the verdict counts %d records, the profile %d", point.Records, prof.Totals.Records)
	}
}

// Traces registered without a raw CLOG-2 cannot be analyzed: 404, and
// corrupt raw logs answer 422 — never a dead server.
func TestAnalyzeErrorMapping(t *testing.T) {
	dir := t.TempDir()
	good, err := os.ReadFile(filepath.Join(goldenDir, "lab2.slog2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "noraw.slog2"), good, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "badraw.slog2"), good, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "badraw.clog2"), []byte("not a clog"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, dir)
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/trace/noraw/analyze", 404},
		{"/trace/badraw/analyze", 422},
		{"/trace/missing/analyze", 404},
		{"/trace/..%2Fescape/analyze", 400},
	} {
		resp, _ := get(t, ts.URL+tc.path, nil)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}

// Repo.stat is the one lookup of a repository file, behind Open and
// behind /profile and /analyze's raw log: it validates the id, answers
// ErrNotFound for a trace without a log, and fingerprints the log it
// finds; IndexStatus names the state of that log's block table.
func TestRepoRawLog(t *testing.T) {
	repo, err := NewRepo(goldenDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := repo.stat("../evil", ".clog2"); err != ErrBadID {
		t.Fatalf("bad id error %v", err)
	}
	if _, _, _, err := repo.stat("absent", ".clog2"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("a trace without a log: error %v, want ErrNotFound", err)
	}
	path, gen, size, err := repo.stat("lab2", ".clog2")
	if info, _ := os.Stat(path); err != nil || path != filepath.Join(goldenDir, "lab2.clog2") || gen == "" || info == nil || size != info.Size() {
		t.Fatalf("stat: %q, %q, %d, %v", path, gen, size, err)
	}
	if status := repo.IndexStatus("collisions"); status != "ok" {
		t.Errorf("IndexStatus = %q, want ok", status)
	}
	if status := repo.IndexStatus("absent"); status != "" {
		t.Errorf("IndexStatus of a trace without a log = %q, want none", status)
	}
}
