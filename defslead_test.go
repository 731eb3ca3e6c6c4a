package repro_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/analyze"
	"repro/internal/clog2"
	"repro/internal/slog2"
	"repro/internal/stats"
	"repro/vis"
)

// Definitions lead the log (clog2.Block): the converter pairs a rank's
// states as its blocks stream in, which is right only if every definition
// comes before the first record it names. No writer writes a definition
// after a timed record (the Writer refuses the block by name), so the log
// here is built byte by byte: two ranks' states, then an EventDef in a
// block of rank 0. Every reader of it refuses it by that name: the
// converter, the profile, the verdict and the table scan; and, when the
// log ends in a block table that shows the breach, every reader that walks
// the file rank by rank.
func TestEveryToolRefusesADefinitionAfterATimedRecord(t *testing.T) {
	const want = "clog2: a EventDef record after the log's first timed record"
	late := clog2.Record{Type: clog2.RecEventDef, ID: clog2.SoloBase + 1, Color: "yellow", Name: "Late"}
	w, err := clog2.NewWriter(&bytes.Buffer{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBlock(1, []clog2.Record{{Type: clog2.RecBareEvt, Time: 1, Rank: 1, ID: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBlock(0, []clog2.Record{late}); err == nil || err.Error() != want {
		t.Errorf("WriteBlock: %v, want %s", err, want)
	}

	log := clog2.AppendHeader(nil, 2)
	table := clog2.Table{NumRanks: 2}
	for _, b := range []clog2.Block{
		{Rank: 0, Records: []clog2.Record{
			{Type: clog2.RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Color: "green", Name: "PI_Write"},
			{Type: clog2.RecBareEvt, Time: 1, ID: 2}, {Type: clog2.RecBareEvt, Time: 2, ID: 3},
		}},
		{Rank: 1, Records: []clog2.Record{
			{Type: clog2.RecBareEvt, Time: 1.5, Rank: 1, ID: 2}, {Type: clog2.RecBareEvt, Time: 2.5, Rank: 1, ID: 3},
		}},
		{Rank: 0, Records: []clog2.Record{late}},
	} {
		m := clog2.BlockMeta{Offset: int64(len(log)), Rank: b.Rank, Records: int32(len(b.Records)), TMin: math.Inf(1), TMax: math.Inf(-1)}
		log = clog2.AppendBlockHeader(log, b.Rank, len(b.Records))
		for i := range b.Records {
			if log, err = clog2.AppendRecord(log, &b.Records[i]); err != nil {
				t.Fatal(err)
			}
			if r := b.Records[i]; r.Type.IsDef() {
				m.Defs++
			} else {
				m.TMin, m.TMax = min(m.TMin, r.Time), max(m.TMax, r.Time)
			}
		}
		log = append(log, byte(clog2.RecEndBlock))
		m.Length = int64(len(log)) - m.Offset
		table.Blocks = append(table.Blocks, m)
	}
	log = append(log, byte(clog2.RecEndLog))
	// The same log ending in the block table a Writer would give it.
	tabled := clog2.AppendTable(slices.Clone(log), &table)

	refused := func(what string, err error) {
		t.Helper()
		if err == nil || err.Error() != want {
			t.Errorf("%s: %v, want %s", what, err, want)
		}
	}
	for _, workers := range []int{1, 4} {
		_, _, err := slog2.ConvertReader(bytes.NewReader(log), slog2.ConvertOptions{Workers: workers})
		refused("slog2.ConvertReader", err)
	}
	_, err = stats.ComputeProfile(bytes.NewReader(log))
	refused("stats.ComputeProfile", err)
	_, err = analyze.Analyze(bytes.NewReader(log), analyze.Options{})
	refused("analyze.Analyze", err)
	_, err = clog2.ScanTable(bytes.NewReader(log))
	refused("clog2.ScanTable", err)

	// Under its block table, a file is read rank by rank: its entries show
	// the breach, so the table is not used, and the scan every reader
	// falls back to names it, at any worker count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	path := writeTemp(t, tabled)
	refusedFile := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.HasSuffix(err.Error(), ": "+want) && err.Error() != want {
			t.Errorf("%s under the table: %v, want %s", what, err, want)
		}
	}
	_, _, err = vis.ConvertFile(path, vis.ConvertOptions{Workers: 2})
	refusedFile("vis.ConvertFile", err)
	_, err = stats.ComputeProfileFile(path)
	refusedFile("stats.ComputeProfileFile", err)
	_, err = analyze.AnalyzeFile(path, analyze.Options{})
	refusedFile("analyze.AnalyzeFile", err)
	_, err = analyze.DiffFiles(path, path, analyze.DiffOptions{})
	refusedFile("analyze.DiffFiles", err)
	// A stream is read in file order, which sees the breach itself.
	_, err = stats.ComputeProfile(bytes.NewReader(tabled))
	refused("stats.ComputeProfile of a stream", err)
}

// writeTemp writes data to a file of its own and returns its path.
func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log.clog2")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
