package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/clog2"
	"repro/internal/stats"
)

// stageTrace copies one golden trace (slog2 + raw clog) into dir so
// sabotage of the log's table cannot touch the committed goldens.
func stageTrace(t *testing.T, dir, id string) {
	t.Helper()
	for _, suffix := range []string{".slog2", ".clog2"} {
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
	// Stage the rendered trace and a profile beside it, but no raw log.
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

	// Every profile is the raw log's, so without it the plain profile is a
	// 404 like a windowed one: the .profile.json beside the trace is not read.
	for _, query := range []string{"", "?t0=0&t1=1"} {
		if resp, _ = get(t, ts.URL+"/trace/thumbnail/profile"+query, nil); resp.StatusCode != 404 {
			t.Errorf("profile%s without clog: status %d, want 404", query, resp.StatusCode)
		}
	}
}

// A profile is computed once per raw-log generation and window: a repeat
// of the same /profile computes nothing, another window computes, and a
// rewritten log (a new generation) computes again. The unwindowed profile
// goes through the log's block table like any window.
func TestProfileComputedOncePerLogGeneration(t *testing.T) {
	dir := t.TempDir()
	stageTrace(t, dir, "collisions")
	s, ts := newTestServer(t, dir)
	fetch := func(query string, computed, indexed int64) []byte {
		t.Helper()
		resp, body := get(t, ts.URL+"/trace/collisions/profile"+query, nil)
		if resp.StatusCode != 200 {
			t.Fatalf("profile%s: status %d (%s)", query, resp.StatusCode, body)
		}
		m := s.MetricsSnapshot()
		if m["profiles_windowed"] != computed || m["profiles_windowed_indexed"] != indexed {
			t.Fatalf("profile%s: %d computed, %d through the table; want %d, %d",
				query, m["profiles_windowed"], m["profiles_windowed_indexed"], computed, indexed)
		}
		return body
	}
	whole := fetch("", 1, 1)
	if !bytes.Equal(whole, logProfileJSON(t, dir, "collisions")) {
		t.Fatal("the unwindowed profile is not the log's")
	}
	if !bytes.Equal(fetch("", 1, 1), whole) {
		t.Fatal("a cached profile differs from the computed one")
	}
	fetch("?t0=0&t1=1", 2, 2)
	fetch("?t0=0&t1=1", 2, 2)

	// The same bytes written an hour later are a new generation.
	later := time.Now().Add(time.Hour)
	if err := os.Chtimes(filepath.Join(dir, "collisions.clog2"), later, later); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fetch("", 3, 3), whole) {
		t.Fatal("the recomputed profile differs")
	}
	if resp, _ := get(t, ts.URL+"/trace/..%2Fevil/profile", nil); resp.StatusCode != 400 {
		t.Errorf("traversal id: status %d, want 400", resp.StatusCode)
	}
}

// logProfileJSON is what pilot-profile -json prints for dir's <id>.clog2.
func logProfileJSON(t *testing.T, dir, id string) []byte {
	t.Helper()
	p, err := stats.ComputeProfileFile(filepath.Join(dir, id+".clog2"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// A .profile.json in the repository is nobody's input. Planted beside
// each golden trace and doctored the way the analyzer's tests doctor it
// (every state's p50 1 s, every channel one send more), it changes no
// reply of any route, as a fresh server after the planting shows.
func TestDoctoredSidecarChangesNoReply(t *testing.T) {
	dir := t.TempDir()
	routes := []string{"/traces"}
	for _, id := range goldenIDs {
		stageTrace(t, dir, id)
		for _, route := range []string{"", "/profile", "/profile?t0=0&t1=1", "/analyze", "/legend", "/tile"} {
			routes = append(routes, "/trace/"+id+route)
		}
	}
	replies := func() map[string][]byte {
		_, ts := newTestServer(t, dir)
		out := map[string][]byte{}
		for _, route := range routes {
			resp, body := get(t, ts.URL+route, nil)
			if resp.StatusCode != 200 {
				t.Fatalf("%s: status %d (%s)", route, resp.StatusCode, body)
			}
			out[route] = body
		}
		return out
	}
	before := replies()
	for _, id := range goldenIDs {
		if !bytes.Equal(before["/trace/"+id+"/profile"], logProfileJSON(t, dir, id)) {
			t.Fatalf("%s: the unwindowed profile is not the log's", id)
		}
		p, err := stats.ComputeProfileFile(filepath.Join(dir, id+".clog2"))
		if err != nil {
			t.Fatal(err)
		}
		for i := range p.States {
			p.States[i].P50Sec = 1
		}
		for i := range p.Channels {
			p.Channels[i].Sends++
		}
		if err := p.WriteJSON(filepath.Join(dir, id+".profile.json")); err != nil {
			t.Fatal(err)
		}
	}
	after := replies()
	for _, route := range routes {
		if !bytes.Equal(after[route], before[route]) {
			t.Errorf("%s: the reply changed with a doctored .profile.json beside the log", route)
		}
	}
}
