package repro_test

import (
	"bytes"
	"testing"

	"repro/internal/analyze"
	"repro/internal/clog2"
	"repro/internal/slog2"
	"repro/internal/stats"
)

// Definitions lead the log (clog2.Block): the converter pairs a rank's
// states as its blocks stream in, which is right only if every definition
// comes before the first record it names. No writer writes a definition
// after a timed record (the Writer refuses the block by name), so the log
// here is built byte by byte: two ranks' states, then an EventDef in a
// block of rank 0. Every reader of it refuses it by that name: the
// converter, the profile, the verdict and the table scan.
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
		log = clog2.AppendBlockHeader(log, b.Rank, len(b.Records))
		for i := range b.Records {
			if log, err = clog2.AppendRecord(log, &b.Records[i]); err != nil {
				t.Fatal(err)
			}
		}
		log = append(log, byte(clog2.RecEndBlock))
	}
	log = append(log, byte(clog2.RecEndLog))

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
}
