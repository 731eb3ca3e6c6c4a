package idx

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/clog2"
)

// writeLog writes a one-rank log whose first block holds three definitions
// and, at 0.1 to 0.3, a bare event, a message on channel 10 and another
// bare event.
func writeLog(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.clog2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := clog2.NewWriter(f, 1)
	if err == nil {
		err = w.WriteBlock(0, []clog2.Record{
			{Type: clog2.RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Color: "red", Name: "A"},
			{Type: clog2.RecEventDef, ID: 7, Color: "blue", Name: "E"},
			{Type: clog2.RecConstDef, ID: 8, Aux1: 42, Name: "K"},
			{Type: clog2.RecBareEvt, Time: 0.1, ID: 2},
			{Type: clog2.RecMsgEvt, Time: 0.2, Dir: clog2.DirSend, Aux2: 10, Aux3: 100},
			{Type: clog2.RecBareEvt, Time: 0.3, ID: 3},
		})
	}
	if err == nil {
		err = w.Close()
	}
	if err == nil {
		err = f.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func mustLoad(t *testing.T, path string) *Index {
	t.Helper()
	ix, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// BuildFile returns the Writer's entry of a log that has a table and a
// scan's of one that has none, and they count and fence the same way; it
// makes no table of a file that is not a log.
func TestBuilderCountsAndFences(t *testing.T) {
	path := writeLog(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bare := filepath.Join(t.TempDir(), "bare.clog2")
	if err := os.WriteFile(bare, data[:mustLoad(t, path).LogSize()], 0o644); err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]string{"written": path, "scanned": bare} {
		ix, err := BuildFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b0 := ix.Blocks[0]
		if b0.Rank != 0 || b0.Records != 6 || b0.Defs != 3 {
			t.Errorf("%s: rank-0 first block meta = %+v", name, b0)
		}
		if b0.TMin != 0.1 || b0.TMax != 0.3 {
			t.Errorf("%s: rank-0 time fence = [%v, %v], want [0.1, 0.3] (defs excluded)", name, b0.TMin, b0.TMax)
		}
		if sel := ix.Select(MatchAll()); len(sel) != 1 {
			t.Errorf("%s: MatchAll selects blocks %v, want the one", name, sel)
		}
	}
	if _, err := os.Stat(SidecarPath(bare)); err == nil {
		t.Error("BuildFile left a sidecar")
	}
	junk := filepath.Join(t.TempDir(), "junk.clog2")
	if err := os.WriteFile(junk, []byte("not a clog2 file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{junk, filepath.Join(t.TempDir(), "absent.clog2")} {
		if _, err := BuildFile(p); err == nil {
			t.Errorf("BuildFile made a table of %s", p)
		}
	}
}

func TestSidecarPath(t *testing.T) {
	if got := SidecarPath("a/b/run.clog2"); got != "a/b/run.clog2.idx" {
		t.Errorf("SidecarPath = %q", got)
	}
	path := writeLog(t)
	if err := WriteFileFor(path, mustLoad(t, path)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(SidecarPath(path)); err == nil {
		t.Error("WriteFileFor wrote a sidecar")
	}
}
