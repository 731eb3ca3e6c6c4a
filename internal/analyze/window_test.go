package analyze

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/clog2"
	"repro/internal/stats"
)

// bytesRead is what this process has asked the kernel to read so far
// (rchar of /proc/self/io); the test is skipped where there is no such
// file.
func bytesRead(t *testing.T) int64 {
	t.Helper()
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		t.Skipf("no read accounting on this platform: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "rchar: "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Skip("/proc/self/io has no rchar line")
	return 0
}

// writeBlockyLog writes a two-rank log of 2*steps blocks in time order:
// step k is one block per rank whose records all fall in [k, k+1).
func writeBlockyLog(t *testing.T, path string, steps, statesPerBlock int) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := clog2.NewWriter(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]clog2.Record, 0, 2*statesPerBlock+1)
	for k := 0; k < steps; k++ {
		for rank := int32(0); rank < 2; rank++ {
			recs = recs[:0]
			if k == 0 && rank == 0 {
				recs = append(recs, clog2.Record{Type: clog2.RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Name: "PI_Read", Color: "red"})
			}
			for i := 0; i < statesPerBlock; i++ {
				at := float64(k) + float64(i)/float64(statesPerBlock)
				recs = append(recs,
					clog2.Record{Type: clog2.RecBareEvt, Rank: rank, Time: at, ID: 2},
					clog2.Record{Type: clog2.RecBareEvt, Rank: rank, Time: at + 0.25/float64(statesPerBlock), ID: 3})
			}
			if err := w.WriteBlock(rank, recs); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// A windowed verdict makes one pass, and through the log's valid table
// that pass reads the window's blocks and nothing else. (It used to read the whole
// log for the collector and the indexed blocks again for the profile.)
func TestAnalyzeWindowedReadsItsBlocksOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blocky.clog2")
	writeBlockyLog(t, path, 150, 600)
	ix, err := clog2.LoadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Blocks) != 300 {
		t.Fatalf("generated log has %d blocks, want 300", len(ix.Blocks))
	}

	before := bytesRead(t)
	rep, err := AnalyzeFileWindowed(path, 70.2, 71.7) // 1 % of [0, 150)
	if err != nil {
		t.Fatal(err)
	}
	read := bytesRead(t) - before
	if !rep.UsedIndex {
		t.Error("a valid table was not used")
	}
	if rep.Records == 0 || rep.Records >= ix.TotalRecords/20 {
		t.Errorf("window holds %d of %d records; the test wants a small, non-empty share", rep.Records, ix.TotalRecords)
	}
	if read >= info.Size()/5 {
		t.Errorf("a 1 %% window read %d bytes of a %d-byte log, want under a fifth", read, info.Size())
	}

	// The whole run of the same log is a plain scan: it does not read the
	// table and does not claim to have used it, and a .profile.json
	// beside it that counts another log's records changes nothing: the
	// log alone decides.
	for _, sidecar := range []string{"", `{"schema":"pilot-profile/1","totals":{"records":7}}`} {
		if sidecar != "" {
			if err := os.WriteFile(strings.TrimSuffix(path, ".clog2")+".profile.json", []byte(sidecar), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for _, whole := range []func() (*Report, error){
			func() (*Report, error) { return AnalyzeFile(path, Options{}) },
			func() (*Report, error) { return AnalyzeFileWindowed(path, math.Inf(-1), math.Inf(1)) },
		} {
			rep, err := whole()
			if err != nil {
				t.Fatal(err)
			}
			if rep.UsedIndex || rep.Window != nil || rep.Records != ix.TotalRecords-1 {
				t.Errorf("whole run (profile sidecar %q): used_index %v, window %v, %d records; want false, none, %d",
					sidecar, rep.UsedIndex, rep.Window, rep.Records, ix.TotalRecords-1)
			}
		}
	}
}

// Whatever blocks the index lets AnalyzeFileWindowed skip, its verdict
// is the one a plain reading of every block gives for the same window,
// and it counts the records the windowed profile counts. A window is a
// window at any width: [0, 0] and a point at a record's own timestamp
// are not read as the whole run.
func TestAnalyzeFileWindowedEqualsPlainReader(t *testing.T) {
	for _, name := range []string{"lab2", "collisions", "thumbnail"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", name+".clog2"))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name+".clog2")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ix, err := clog2.LoadTable(path)
		if err != nil {
			t.Fatal(err)
		}
		tmin, tmax := math.Inf(1), math.Inf(-1)
		for _, b := range ix.Blocks {
			if b.Records > b.Defs {
				tmin, tmax = math.Min(tmin, b.TMin), math.Max(tmax, b.TMax)
			}
		}
		span := tmax - tmin
		// Two of the goldens ran under a frozen clock (span 0), so most
		// windows are anchored off the span.
		for _, w := range [][2]float64{
			{tmin - 1, tmin + span/2},
			{tmin + span/2, tmax + 1},
			{math.Inf(-1), tmin + span/3},
			{tmin + 2*span/3, math.Inf(1)},
			{tmax + 1, tmax + 2}, // empty
			{0, 0},
			{tmax, tmax},
			{tmin + span/2, tmin + span/2 + span/100},
		} {
			got, err := AnalyzeFileWindowed(path, w[0], w[1])
			if err != nil {
				t.Fatalf("%s %v: %v", name, w, err)
			}
			if got.Window == nil || !got.UsedIndex {
				t.Errorf("%s %v: window %v, used_index %v; want a windowed verdict through the valid table", name, w, got.Window, got.UsedIndex)
			}
			prof, _, err := stats.ComputeProfileFileWindowed(path, w[0], w[1])
			if err != nil {
				t.Fatal(err)
			}
			if got.Records != prof.Totals.Records || w[0] == tmax && got.Records == 0 {
				t.Errorf("%s %v: %d records; the windowed profile counts %d", name, w, got.Records, prof.Totals.Records)
			}
			got.UsedIndex = false
			c, _, err := collect(clog2.StreamInput(bytes.NewReader(data)), Options{}, w[0], w[1], 1) // a stream: no table
			if err != nil {
				t.Fatal(err)
			}
			want := buildReport(c, false)
			a, _ := got.JSON()
			b, _ := want.JSON()
			if !bytes.Equal(a, b) {
				t.Errorf("%s %v: indexed verdict differs from the plain reader's\nindexed: %s\nplain:   %s", name, w, a, b)
			}
		}
	}
}
