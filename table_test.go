package repro_test

import (
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clog2"
	"repro/vis"
)

// assertNoSidecar fails the test for any ".idx" file under dir: a log
// carries its own block table, and nothing writes one beside it.
func assertNoSidecar(t *testing.T, dir string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, _ fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, ".idx") {
			t.Errorf("%s was written", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A logged lab2 run and its registration in a trace repository leave no
// ".idx" anywhere: the merged log ends in its table, and the registered
// copy answers through it.
func TestNoSidecarWritten(t *testing.T) {
	run, repo := t.TempDir(), t.TempDir()
	clog := filepath.Join(run, "lab2.clog2")
	runLab2Golden(t, clog)
	if _, _, _, err := vis.PipelineToRepo(clog, repo, "lab2", vis.ConvertOptions{}); err != nil {
		t.Fatal(err)
	}
	assertNoSidecar(t, run)
	assertNoSidecar(t, repo)
	for _, p := range []string{clog, filepath.Join(repo, "lab2.clog2")} {
		if _, err := clog2.LoadTable(p); err != nil {
			t.Errorf("%s: %v, want a usable table", p, err)
		}
	}
}
