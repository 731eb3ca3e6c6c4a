package vis

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// A re-registration whose copy fails leaves the raw log registered before
// byte for byte, and no temporary file beside it.
func TestRegisterRawLogFailureKeepsThePreviousLog(t *testing.T) {
	repo := t.TempDir()
	src := filepath.Join(t.TempDir(), "run.clog2")
	want := []byte("the log registered first")
	if err := os.WriteFile(src, want, 0o644); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(repo, "run.clog2")
	if err := registerRawLog(src, dst); err != nil {
		t.Fatal(err)
	}
	// A directory opens, and then fails the first read.
	if err := registerRawLog(t.TempDir(), dst); err == nil {
		t.Fatal("copying a directory succeeded")
	}
	if got, err := os.ReadFile(dst); err != nil || !bytes.Equal(got, want) {
		t.Errorf("after a failed copy the registered log reads %q, %v; want %q", got, err, want)
	}
	if ents, err := os.ReadDir(repo); err != nil || len(ents) != 1 {
		t.Errorf("the repository holds %d entries (%v), want the log alone", len(ents), err)
	}
}

// A registration whose raw-log copy fails is refused, and publishes no
// .slog2: every trace PipelineToRepo registers can answer its profile.
func TestPipelineToRepoFailedCopyPublishesNothing(t *testing.T) {
	lab2 := filepath.Join("..", "testdata", "golden", "lab2.clog2")
	repo := t.TempDir()
	// A directory where the copy is renamed to: the rename fails.
	if err := os.Mkdir(filepath.Join(repo, "run.clog2"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := PipelineToRepo(lab2, repo, "run", ConvertOptions{}); err == nil {
		t.Fatal("a registration whose copy failed succeeded")
	}
	if ents, err := os.ReadDir(repo); err != nil || len(ents) != 1 || ents[0].Name() != "run.clog2" {
		t.Errorf("after a failed copy the repository holds %v (%v); want the directory alone", ents, err)
	}
}
