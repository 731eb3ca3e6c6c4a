package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serve"
)

var golden = filepath.Join("..", "..", "testdata", "golden", "thumbnail.clog2")

// A NaN bound used to read as no bound: -t0 NaN -t1 -5 printed an empty
// profile and exited 0 where -t0 0 -t1 -5 fails. Both are refused by
// name, with the wrong-side infinities.
func TestRunRefusesNaNWindow(t *testing.T) {
	for _, args := range [][]string{
		{"-t0", "NaN"}, {"-t1", "NaN"}, {"-t0", "NaN", "-t1", "-5"}, {"-t0", "0", "-t1", "-5"}, {"-t0", "+Inf"}, {"-t1", "-Inf"},
	} {
		var out, errOut bytes.Buffer
		if code := run(append(args, golden), &out, &errOut); code != 2 || out.Len() != 0 || !strings.Contains(errOut.String(), "empty time window") {
			t.Errorf("pilot-profile %v: exit %d, stdout %q, stderr %q; want 2, nothing, the window named", args, code, out.String(), errOut.String())
		}
	}
	var out bytes.Buffer
	if code := run([]string{"-json", "-t0", "0", golden}, &out, io.Discard); code != 0 || !strings.Contains(out.String(), `"t0": 0`) {
		t.Errorf("pilot-profile -t0 0: exit %d, output %.200q", code, out.String())
	}
}

// pilot-serve's unwindowed profile of every golden trace is what
// pilot-profile -json prints for the log registered beside it, byte for
// byte: the repository holds the .slog2 and the .clog2 and nothing else.
func TestServedProfileIsPilotProfileJSON(t *testing.T) {
	repo := t.TempDir()
	ids := []string{"collisions", "lab2", "thumbnail"}
	for _, id := range ids {
		for _, suffix := range []string{".slog2", ".clog2"} {
			data, err := os.ReadFile(filepath.Join(filepath.Dir(golden), id+suffix))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(repo, id+suffix), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv, err := serve.New(serve.Config{RepoDir: repo})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, id := range ids {
		var want bytes.Buffer
		if code := run([]string{"-json", filepath.Join(repo, id+".clog2")}, &want, io.Discard); code != 0 {
			t.Fatalf("pilot-profile -json %s: exit %d", id, code)
		}
		resp, err := http.Get(ts.URL + "/trace/" + id + "/profile")
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: /profile (status %d, %d bytes, %v) differs from pilot-profile -json (%d bytes)",
				id, resp.StatusCode, len(got), err, want.Len())
		}
	}
}
