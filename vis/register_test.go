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
