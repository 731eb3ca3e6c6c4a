package main

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

var golden = filepath.Join("..", "..", "testdata", "golden", "thumbnail.clog2")

// A NaN bound used to read as no bound, and the analysis ran over the
// whole log or none of it; it is refused by name, as an inverted or
// wrong-side infinite window is.
func TestRunRefusesNaNWindow(t *testing.T) {
	for _, args := range [][]string{
		{"-t0", "NaN"}, {"-t1", "NaN"}, {"-t0", "NaN", "-t1", "-5"}, {"-t0", "0", "-t1", "-5"}, {"-t0", "+Inf"}, {"-t1", "-Inf"},
	} {
		var out, errOut bytes.Buffer
		if code := run(append(args, golden), &out, &errOut); code != 2 || out.Len() != 0 || !strings.Contains(errOut.String(), "empty time window") {
			t.Errorf("pilot-analyze %v: exit %d, stdout %q, stderr %q; want 2, nothing, the window named", args, code, out.String(), errOut.String())
		}
	}
	var out bytes.Buffer
	if code := run([]string{"-json", "-t0", "0", golden}, &out, io.Discard); code != 0 && code != 3 || !strings.Contains(out.String(), `"schema"`) {
		t.Errorf("pilot-analyze -t0 0: exit %d, output %.200q", code, out.String())
	}
}
