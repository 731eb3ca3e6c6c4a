package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/clog2"
	"repro/internal/stats"
)

// stageTrace copies one golden trace (slog2 + profile + raw clog) into
// dir so sabotage of the log's table cannot touch the committed goldens.
func stageTrace(t *testing.T, dir, id string) {
	t.Helper()
	for _, suffix := range []string{".slog2", ".profile.json", ".clog2"} {
		data, err := os.ReadFile(filepath.Join(goldenDir, id+suffix))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, id+suffix), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWindowedProfileEndpoint(t *testing.T) {
	dir := t.TempDir()
	stageTrace(t, dir, "lab2")
	clog := filepath.Join(dir, "lab2.clog2")
	srv, ts := newTestServer(t, dir)

	// Trace meta reports the raw log and a healthy table.
	resp, body := get(t, ts.URL+"/trace/lab2", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("meta: status %d", resp.StatusCode)
	}
	var meta traceMetaJSON
	if err := json.Unmarshal(body, &meta); err != nil {
		t.Fatal(err)
	}
	if !meta.HasClog || meta.Index != "ok" {
		t.Fatalf("meta = has_clog %v, index %q; want true, ok", meta.HasClog, meta.Index)
	}

	// A windowed query answers exactly what the library computes.
	resp, body = get(t, ts.URL+"/trace/lab2/profile?t0=0&t1=1", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("windowed profile: status %d (%s)", resp.StatusCode, body)
	}
	want, used, err := stats.ComputeProfileFileWindowed(clog, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !used {
		t.Fatal("library did not use the log's table")
	}
	wantJSON, err := want.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, wantJSON) {
		t.Errorf("served windowed profile differs from direct computation")
	}

	// Only t0: open-ended upper bound.
	resp, _ = get(t, ts.URL+"/trace/lab2/profile?t0=0", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("t0-only profile: status %d", resp.StatusCode)
	}

	// Malformed and NaN bounds answer 400.
	for _, bad := range []string{"?t0=abc", "?t1=NaN", "?t0=--3"} {
		resp, _ = get(t, ts.URL+"/trace/lab2/profile"+bad, nil)
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}

	// The windowed counters moved and the expvar report carries the
	// per-trace index state.
	m := srv.MetricsSnapshot()
	if m["profiles_windowed"] < 2 {
		t.Errorf("profiles_windowed = %v", m["profiles_windowed"])
	}
	ti := srv.TraceIndexSnapshot()
	if ti["lab2"] != "ok" {
		t.Errorf("TraceIndexSnapshot = %v", ti)
	}

	// Cut the log's footer off: meta degrades, windowed queries still
	// answer (full scan), and the answer matches the library scan.
	data, err := os.ReadFile(clog)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(clog, data[:len(data)-clog2.FooterSize], 0o644); err != nil {
		t.Fatal(err)
	}
	resp, body = get(t, ts.URL+"/trace/lab2", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("meta after sabotage: status %d", resp.StatusCode)
	}
	meta = traceMetaJSON{}
	if err := json.Unmarshal(body, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Index != "degraded" {
		t.Errorf("index after the cut = %q, want degraded", meta.Index)
	}
	resp, body = get(t, ts.URL+"/trace/lab2/profile?t0=0&t1=1", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("degraded windowed profile: status %d", resp.StatusCode)
	}
	if !bytes.Equal(body, wantJSON) {
		t.Errorf("degraded windowed profile differs from the indexed answer")
	}
}

func TestWindowedProfileWithoutClog(t *testing.T) {
	dir := t.TempDir()
	// Stage only the rendered artifacts — no raw log.
	for _, suffix := range []string{".slog2", ".profile.json"} {
		data, err := os.ReadFile(filepath.Join(goldenDir, "thumbnail"+suffix))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "thumbnail"+suffix), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, ts := newTestServer(t, dir)

	var meta traceMetaJSON
	resp, body := get(t, ts.URL+"/trace/thumbnail", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("meta: status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.HasClog || meta.Index != "" {
		t.Errorf("clog-less meta = has_clog %v, index %q", meta.HasClog, meta.Index)
	}

	// The plain profile still serves from its sidecar JSON...
	resp, _ = get(t, ts.URL+"/trace/thumbnail/profile", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("plain profile: status %d", resp.StatusCode)
	}
	// ...but a windowed query needs the raw log: 404.
	resp, _ = get(t, ts.URL+"/trace/thumbnail/profile?t0=0&t1=1", nil)
	if resp.StatusCode != 404 {
		t.Errorf("windowed profile without clog: status %d, want 404", resp.StatusCode)
	}
}

func TestRepoWindowedProfileDirect(t *testing.T) {
	dir := t.TempDir()
	stageTrace(t, dir, "collisions")
	repo, err := NewRepo(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, used, err := repo.WindowedProfile("collisions", math.Inf(-1), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if !used {
		t.Error("the log's table was not used")
	}
	if p.NumRanks < 1 {
		t.Errorf("profile = %+v", p)
	}
	if _, _, err := repo.WindowedProfile("../evil", 0, 1); err == nil {
		t.Error("traversal id did not error")
	}
	if status := repo.IndexStatus("collisions"); status != "ok" {
		t.Errorf("IndexStatus = %q, want ok", status)
	}
	if status := repo.IndexStatus("absent"); status != "" {
		t.Errorf("IndexStatus of a trace without a log = %q, want none", status)
	}
}
