package analyze

import (
	"bytes"
	"cmp"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/clog2"
	"repro/internal/slog2"
)

// FuzzAnalyze hammers the full analysis pass (collection scan, profile
// recomputation, detector catalogue, diff normalization, JSON render)
// with mutated inputs, seeded from the three golden CLOG-2 traces.
// Contract: hostile bytes produce a diagnosed error, never a panic, a
// hang, or a report that fails to marshal; whatever analyzes also
// converts, and reads the way the converter reads it (agreeWithConverter);
// and its profile and verdict are the same bytes at 1 and 2 workers
// (agreeAcrossWorkers).
func FuzzAnalyze(f *testing.F) {
	for _, name := range []string{"lab2", "thumbnail", "collisions"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", name+".clog2"))
		if err != nil {
			f.Fatalf("golden seed: %v", err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add(newTB(f, 2).withReadWrite().bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		// Keep the pass bounded: mutated inputs can declare absurd
		// message counts, and the default cap is sized for real traces.
		rep, err := AnalyzeBytes(data, Options{MaxMsgEvents: 1 << 12})
		if err != nil {
			return // diagnosed rejection is the expected outcome
		}
		out, jerr := rep.JSON()
		if jerr != nil {
			t.Fatalf("accepted input produced unmarshalable report: %v", jerr)
		}
		var round Report
		if err := json.Unmarshal(out, &round); err != nil {
			t.Fatalf("report JSON does not round-trip: %v", err)
		}
		if round.Schema != Schema {
			t.Fatalf("schema %q, want %q", round.Schema, Schema)
		}
		// Anything analyzable must also self-diff clean.
		d, derr := DiffBytes(data, data, "a", "a", DiffOptions{})
		if derr != nil {
			t.Fatalf("analyzable input failed to diff: %v", derr)
		}
		if !d.Identical {
			t.Fatalf("self-diff diverged: %+v", d.Divergences)
		}
		agreeWithConverter(t, data)
		agreeAcrossWorkers(t, data, Options{MaxMsgEvents: 1 << 12})
	})
}

// agreeAcrossWorkers holds a log that analyzes as a stream to the same
// profile and verdict, byte for byte, when its ranks are read through its
// block table on one worker or two.
func agreeAcrossWorkers(t *testing.T, data []byte, opts Options) {
	var want []byte
	for _, workers := range []int{0, 1, 2} {
		in := tabled(data)
		if workers == 0 {
			in = clog2.StreamInput(bytes.NewReader(data))
		}
		c, _, err := collect(in, opts, math.Inf(-1), math.Inf(1), workers)
		if err != nil {
			t.Fatalf("%d workers: a log that analyzes fails: %v", workers, err)
		}
		prof, err := c.profile.JSON()
		if err != nil {
			t.Fatalf("%d workers: profile JSON: %v", workers, err)
		}
		verdict, err := buildReport(c, false).JSON()
		if err != nil {
			t.Fatalf("%d workers: verdict JSON: %v", workers, err)
		}
		got := append(prof, verdict...)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("%d workers: the profile and verdict differ from the stream's\n%s\nwant\n%s", workers, got, want)
		}
	}
}

// agreeWithConverter converts a log that analyzes and checks the SLOG-2
// round-trips with finite bounds and sound frames. The converter reads
// every log that reads as the fold does (in file order, which the reader
// holds to each rank's time order), so its states must be the fold's
// closed occurrences of defined states and its arrows the analyzer's
// matched pairs.
func agreeWithConverter(t *testing.T, data []byte) {
	f, _, err := slog2.ConvertReader(bytes.NewReader(data), slog2.ConvertOptions{})
	if err != nil {
		t.Fatalf("analyzable input failed to convert: %v", err)
	}
	path := filepath.Join(t.TempDir(), "converted.slog2")
	if err := slog2.WriteFile(path, f); err != nil {
		t.Fatalf("converted file does not write: %v", err)
	}
	back, err := slog2.ReadFile(path)
	if err != nil {
		t.Fatalf("converted file does not read back: %v", err)
	}
	for _, b := range []float64{back.Start, back.End} {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			t.Fatalf("converted file spans [%v, %v]", back.Start, back.End)
		}
	}
	if err := back.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	var recs []clog2.Record
	br, err := clog2.NewBlockReader(bytes.NewReader(data))
	if err == nil {
		err = br.Each(func(run clog2.Block) error { recs = append(recs, run.Records...); return nil })
	}
	if err != nil {
		t.Fatalf("a log that converts does not read: %v", err)
	}
	type state struct {
		rank, id   int32
		start, end float64
	}
	var defs []int32 // state IDs in category order
	defined := map[int32]bool{}
	n := 0 // the definitions lead the log
	for ; n < len(recs) && recs[n].Type.IsDef(); n++ {
		if recs[n].Type == clog2.RecStateDef {
			defs = append(defs, recs[n].ID)
			defined[recs[n].ID] = true
		}
	}
	etypes := clog2.NewEtypes(recs[:n])
	folds := map[int32]*clog2.Fold{}
	var occs []state
	for _, rec := range recs[n:] {
		fold := folds[rec.Rank]
		if fold == nil {
			fold = clog2.NewFold(etypes, rec.Rank)
			folds[rec.Rank] = fold
		}
		if fold.Add(&rec) == clog2.StepClose {
			occs = append(occs, state{fold.Rank, fold.Closed.ID, fold.Closed.Start, fold.Closed.End})
		}
	}
	occs = slices.DeleteFunc(occs, func(s state) bool { return !defined[s.id] })
	var states []state
	for _, r := range f.States(math.Inf(-1), math.Inf(1)) {
		states = append(states, state{int32(r.D.Rank), defs[r.D.Cat], r.D.Start, r.D.End})
	}
	byState := func(a, b state) int {
		return cmp.Or(cmp.Compare(a.rank, b.rank), cmp.Compare(a.start, b.start), cmp.Compare(a.end, b.end), cmp.Compare(a.id, b.id))
	}
	slices.SortFunc(occs, byState)
	slices.SortFunc(states, byState)
	if !slices.Equal(states, occs) {
		t.Fatalf("converter states %v, fold occurrences %v", states, occs)
	}

	c, _, err := collect(tabled(data), Options{}, math.Inf(-1), math.Inf(1), 1)
	if err != nil || c.truncated {
		return
	}
	var pairs, arrows []slog2.Arrow
	c.msgs.Match(func(k clog2.MsgKey, sends, recvs []clog2.MsgHalf) {
		for i := range min(len(sends), len(recvs)) {
			pairs = append(pairs, slog2.Arrow{SrcRank: int(k.Src), DstRank: int(k.Dst),
				Start: sends[i].Time, End: recvs[i].Time, Tag: int(k.Tag), Size: int(sends[i].Size)})
		}
	})
	for _, r := range f.Arrows(math.Inf(-1), math.Inf(1)) {
		arrows = append(arrows, *r.D)
	}
	byArrow := func(a, b slog2.Arrow) int {
		return cmp.Or(cmp.Compare(a.SrcRank, b.SrcRank), cmp.Compare(a.DstRank, b.DstRank), cmp.Compare(a.Tag, b.Tag),
			cmp.Compare(a.Start, b.Start), cmp.Compare(a.End, b.End), cmp.Compare(a.Size, b.Size))
	}
	slices.SortFunc(pairs, byArrow)
	slices.SortFunc(arrows, byArrow)
	if !slices.Equal(arrows, pairs) {
		t.Fatalf("converter arrows %v, analyzer pairs %v", arrows, pairs)
	}
}
