package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/vis"
)

var golden = filepath.Join("..", "..", "testdata", "golden", "thumbnail.slog2")

func runJumpshot(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(append(args, golden), &out, &errOut)
	return code, out.String(), errOut.String()
}

// With no window every view covers the whole log: the bytes are the
// legend and statistics over [Start, End].
func TestWholeLogByDefault(t *testing.T) {
	f, err := vis.ReadSLOG2(golden)
	if err != nil {
		t.Fatal(err)
	}
	entries := vis.Legend(f, f.Start, f.End)
	vis.SortLegend(entries, "name")
	want := vis.FormatLegend(entries) + vis.FormatStats(f, vis.Stats(f, f.Start, f.End))
	if code, out, errOut := runJumpshot(t, "-legend", "-stats"); code != 0 || out != want {
		t.Errorf("jumpshot -legend -stats: exit %d, stderr %q, output\n%s\nwant\n%s", code, errOut, out, want)
	}
}

// -from alone used to be ignored (-to defaulted to 0, and an inverted
// window meant the whole log): an unset -to is the log's end.
func TestFromAloneNarrowsTheWindow(t *testing.T) {
	f, err := vis.ReadSLOG2(golden)
	if err != nil {
		t.Fatal(err)
	}
	const from = 0.002
	if from <= f.Start || from >= f.End {
		t.Fatalf("fixture spans [%g, %g]; -from %g is not inside it", f.Start, f.End, from)
	}
	code, out, errOut := runJumpshot(t, "-from", "0.002", "-stats")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if want := vis.FormatStats(f, vis.Stats(f, from, f.End)); out != want {
		t.Errorf("-from 0.002 -stats printed\n%s\nwant\n%s", out, want)
	}
	if whole := vis.FormatStats(f, vis.Stats(f, f.Start, f.End)); out == whole {
		t.Error("-from 0.002 -stats printed the whole-run table")
	}
}

// A NaN bound and an inverted window are usage errors, named by
// clog2.CheckWindow's message, not an empty table or the whole log. So is
// a -from past the log's end, which inverts the window -to's default
// makes.
func TestRefusesEmptyWindow(t *testing.T) {
	for _, args := range [][]string{
		{"-from", "NaN", "-stats"},
		{"-from", "0.3", "-to", "0.1", "-stats"},
		{"-from", "5", "-stats"},
	} {
		if code, out, errOut := runJumpshot(t, args...); code != 2 || out != "" || !strings.Contains(errOut, "empty time window") {
			t.Errorf("jumpshot %v: exit %d, stdout %q, stderr %q; want 2, nothing, the window named", args, code, out, errOut)
		}
	}
}

// An unknown -sort key used to sort by name silently.
func TestRefusesUnknownSortKey(t *testing.T) {
	code, out, errOut := runJumpshot(t, "-sort", "bogus", "-legend")
	if code != 2 || out != "" {
		t.Errorf("exit %d, stdout %q; want 2 and nothing", code, out)
	}
	for _, key := range []string{"bogus", "name", "count", "incl", "excl"} {
		if !strings.Contains(errOut, key) {
			t.Errorf("stderr %q does not name %q", errOut, key)
		}
	}
}
