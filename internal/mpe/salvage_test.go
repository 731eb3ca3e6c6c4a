package mpe_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clog2"
	"repro/internal/mpe"
	"repro/internal/mpi"
	"repro/internal/slog2"
)

// abortedRun logs real traffic on every rank of a 3-rank world with
// spilling on, never Finishes (the abort), and returns the group. Each
// rank r writes 2*(r+2) state-half records plus one message record, all
// write-through, so rank r's fragment holds 2*(r+2)+1 segments.
func abortedRun(t testing.TB, prefix string) *mpe.Group {
	t.Helper()
	w := mpi.NewWorld(3, mpi.Options{})
	g := mpe.NewGroup(w, true)
	g.EnableSpill(prefix)
	read := g.DescribeState("PI_Read", "red")
	arrival := g.DescribeEvent("MsgArrival", "yellow")
	if err := g.SpillDefs(); err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 3; rank++ {
		l := g.Logger(rank)
		for i := 0; i < rank+2; i++ {
			l.StateStart(read, "line: lab2.go:57")
			l.StateEnd(read, "")
		}
		l.Event(arrival, "chan: C1")
		if err := l.SpillError(); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func salvageToFile(t testing.TB, prefix string) (*mpe.SalvageReport, []byte) {
	t.Helper()
	var out bytes.Buffer
	rep, err := mpe.SalvageWithReport(prefix, &out)
	if err != nil {
		t.Fatalf("salvage: %v", err)
	}
	return rep, out.Bytes()
}

func TestSalvageReportCleanRun(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "run.clog2")
	abortedRun(t, prefix)
	rep, merged := salvageToFile(t, prefix)
	if !rep.Clean() {
		t.Fatalf("clean run reported dirty:\n%s", rep)
	}
	if rep.RanksRecovered != 3 || rep.NumRanks != 3 || rep.DefsSynthesized {
		t.Fatalf("report: %+v", rep)
	}
	for _, r := range rep.Ranks {
		wantSegs := 2*(r.Rank+2) + 1
		if r.Note != "" || r.SegmentsRecovered != wantSegs ||
			r.SegmentsMissing != 0 || r.SegmentsSkipped != 0 ||
			r.SegmentsWritten != int64(wantSegs) || r.BytesQuarantined != 0 {
			t.Fatalf("rank %d accounting: %+v", r.Rank, r)
		}
	}
	if _, err := clog2.ScanTable(bytes.NewReader(merged)); err != nil {
		t.Fatalf("merged log unreadable: %v", err)
	}
	// The report must mention every rank when rendered.
	s := rep.String()
	for _, want := range []string{"rank 0", "rank 1", "rank 2", "3 rank(s)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report text missing %q:\n%s", want, s)
		}
	}
}

// The end-to-end acceptance property: corrupting any single byte of a v2
// rank fragment loses at most the segment holding it — salvage still
// succeeds, the accounting closes (recovered + skipped + missing ==
// written), the other ranks stay complete, and the merged file stays
// readable.
func TestSalvageByteFlipSweep(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "run.clog2")
	abortedRun(t, prefix)
	fragPath := prefix + ".rank1.spill"
	pristine, err := os.ReadFile(fragPath)
	if err != nil {
		t.Fatal(err)
	}
	segs, _ := clog2.ScanSegments(pristine)
	written := len(segs)

	baseRep, _ := salvageToFile(t, prefix)
	var baseRank0 int
	for _, r := range baseRep.Ranks {
		if r.Rank == 0 {
			baseRank0 = r.Records
		}
	}

	for off := 0; off < len(pristine); off++ {
		mut := append([]byte(nil), pristine...)
		mut[off] ^= 0xA5
		if err := os.WriteFile(fragPath, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, merged := salvageToFile(t, prefix)
		for _, r := range rep.Ranks {
			switch r.Rank {
			case 1:
				lost := r.SegmentsMissing + r.SegmentsSkipped
				if lost > 1 {
					t.Fatalf("flip at %d lost %d segments", off, lost)
				}
				// The accounting closes against what the scanner can still
				// prove was written (the flip may demote the last segment's
				// seq out of view).
				if int64(r.SegmentsRecovered+r.SegmentsSkipped+r.SegmentsMissing) != r.SegmentsWritten {
					t.Fatalf("flip at %d: accounting open: %+v", off, r)
				}
				if r.SegmentsRecovered < written-1 {
					t.Fatalf("flip at %d recovered only %d of %d segments", off, r.SegmentsRecovered, written)
				}
			case 0:
				if r.Records != baseRank0 || r.SegmentsMissing+r.SegmentsSkipped != 0 {
					t.Fatalf("flip at %d in rank 1 damaged rank 0: %+v", off, r)
				}
			}
		}
		if _, err := clog2.ScanTable(bytes.NewReader(merged)); err != nil {
			t.Fatalf("flip at %d: merged log unreadable: %v", off, err)
		}
	}
	if err := os.WriteFile(fragPath, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A missing defs spill degrades to synthesized placeholder definitions:
// the salvage still succeeds, warns, and the merged log still converts to
// SLOG-2 with every record categorised (no "no definition" drops).
func TestSalvageSynthesizesDefs(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "run.clog2")
	abortedRun(t, prefix)
	if err := os.Remove(prefix + ".defs.spill"); err != nil {
		t.Fatal(err)
	}
	rep, merged := salvageToFile(t, prefix)
	if !rep.DefsSynthesized {
		t.Fatal("missing defs not reported as synthesized")
	}
	if rep.Clean() {
		t.Fatal("synthesized defs counted as a clean salvage")
	}
	if len(rep.Warnings) == 0 {
		t.Fatal("no warning for missing defs")
	}
	br, err := clog2.NewBlockReader(bytes.NewReader(merged))
	stateDefs := 0
	if err == nil {
		err = br.Each(func(run clog2.Block) error {
			for i := range run.Records {
				if run.Records[i].Type == clog2.RecStateDef {
					stateDefs++
				}
			}
			return nil
		})
	}
	if err != nil {
		t.Fatalf("merged log unreadable: %v", err)
	}
	if stateDefs != 1 {
		t.Fatalf("synthesized %d state defs, want 1", stateDefs)
	}
	sf, srep, err := slog2.ConvertReader(bytes.NewReader(merged), slog2.ConvertOptions{})
	if err != nil {
		t.Fatalf("convert: %v", err)
	}
	for _, w := range srep.Warnings {
		if strings.Contains(w, "no definition") {
			t.Fatalf("salvaged records dropped: %v", w)
		}
	}
	// 3 ranks, rank r holds r+2 complete states and one solo event.
	if srep.States != 2+3+4 || srep.Events != 3 {
		t.Fatalf("converted %d states, %d events", srep.States, srep.Events)
	}
	if sf == nil {
		t.Fatal("nil SLOG-2 file")
	}
}

// A corrupted (not just missing) defs spill also degrades to synthesis.
func TestSalvageDamagedDefs(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "run.clog2")
	abortedRun(t, prefix)
	if err := os.WriteFile(prefix+".defs.spill", []byte("scribbled over"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, merged := salvageToFile(t, prefix)
	if !rep.DefsSynthesized {
		t.Fatal("damaged defs not reported as synthesized")
	}
	if _, err := clog2.ScanTable(bytes.NewReader(merged)); err != nil {
		t.Fatalf("merged log unreadable: %v", err)
	}
}

// A raw CLOG-2 stream is what the first spill format was; nothing has
// written one since the segment format replaced it, and salvage no longer
// reads it. Such a fragment is one rank's loss, accounted like any other
// unrecognized data (whole length quarantined, one region, tail torn):
// the other ranks salvage and the merged log still converts. An empty
// fragment next to it keeps its own accounting.
func TestSalvageRawStreamFragment(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "run.clog2")
	abortedRun(t, prefix)
	raw := clog2.AppendHeader(nil, 3)
	for i, at := range []float64{1, 2} {
		rec := clog2.Record{Type: clog2.RecBareEvt, Rank: 1, Time: at, ID: int32(i)}
		var err error
		if raw, err = clog2.AppendBlock(raw, 1, []clog2.Record{rec}); err != nil {
			t.Fatal(err)
		}
	}
	if table, err := clog2.ScanTable(bytes.NewReader(raw)); table == nil || len(table.Blocks) != 2 {
		t.Fatalf("the fragment is not the raw stream it is meant to be: %v", err)
	}
	if err := os.WriteFile(prefix+".rank1.spill", raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(prefix+".rank7.spill", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, merged := salvageToFile(t, prefix)
	if rep.RanksRecovered != 2 || rep.Clean() {
		t.Fatalf("salvaged %d ranks (clean %v), want 2 and not clean:\n%s", rep.RanksRecovered, rep.Clean(), rep)
	}
	for _, r := range rep.Ranks {
		want := mpe.RankSalvage{Rank: r.Rank, Path: r.Path}
		switch r.Rank {
		case 1:
			want.Note = "unrecognized spill data"
			want.BytesQuarantined, want.DamagedRegions, want.TailTorn = int64(len(raw)), 1, true
		case 7:
			want.Note = "empty"
		default:
			n := 2*(r.Rank+2) + 1
			want.SegmentsRecovered, want.SegmentsWritten, want.Records = n, int64(n), n
		}
		if r != want || r.Damaged() != (want.Note != "") {
			t.Errorf("rank %d: %+v (damaged %v), want %+v", r.Rank, r, r.Damaged(), want)
		}
	}
	if want := "rank 1: 0 recovered / 0 skipped / 0 missing of 0 written, 0 record(s), " +
		fmt.Sprint(len(raw)) + " byte(s) quarantined in 1 region(s), tail torn (unrecognized spill data)"; !strings.Contains(rep.String(), want) {
		t.Errorf("report lacks %q:\n%s", want, rep)
	}
	if got := rep.RecoveryPct(); got != 100 {
		t.Errorf("RecoveryPct = %v, want 100: no segment of the surviving ranks was lost", got)
	}
	if _, srep, err := slog2.ConvertReader(bytes.NewReader(merged), slog2.ConvertOptions{}); err != nil || srep.States != 2+4 {
		t.Fatalf("converted %+v, err %v; want the 2+4 states of ranks 0 and 2", srep, err)
	}
}

// Fragment discovery globs — it finds sparse and very high ranks without
// a probe bound, and ignores files that merely look like fragments.
func TestFindSpillFragments(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "run.clog2")
	for _, name := range []string{
		"run.clog2.rank0.spill", "run.clog2.rank7.spill", "run.clog2.rank4096.spill",
		"run.clog2.rankX.spill", "run.clog2.rank-1.spill", "run.clog2.rank01.spill",
		"run.clog2.defs.spill", "other.clog2.rank3.spill",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	frags := mpe.FindSpillFragments(prefix)
	if len(frags) != 3 {
		t.Fatalf("found %d fragments: %+v", len(frags), frags)
	}
	for i, want := range []int{0, 7, 4096} {
		if frags[i].Rank != want {
			t.Fatalf("fragment %d has rank %d, want %d", i, frags[i].Rank, want)
		}
	}
}

// A fragment from a rank beyond the defs table's world size widens the
// merged file's rank count instead of being dropped — the old bounded
// probe could never even find it.
func TestSalvageHighRankWidensWorld(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "run.clog2")
	abortedRun(t, prefix)
	rec := clog2.Record{Type: clog2.RecBareEvt, Time: 9.0, Rank: 4096, ID: 0}
	payload, err := clog2.AppendBlock(nil, 4096, []clog2.Record{rec})
	if err != nil {
		t.Fatal(err)
	}
	frag := append(make([]byte, clog2.SegHeaderSize), payload...)
	clog2.FinalizeSegmentHeader(frag, 4096, 0)
	if err := os.WriteFile(prefix+".rank4096.spill", frag, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, merged := salvageToFile(t, prefix)
	if rep.NumRanks != 4097 {
		t.Fatalf("NumRanks = %d, want 4097", rep.NumRanks)
	}
	if rep.RanksRecovered != 4 {
		t.Fatalf("salvaged %d ranks, want 4", rep.RanksRecovered)
	}
	if _, err := clog2.ScanTable(bytes.NewReader(merged)); err != nil {
		t.Fatalf("merged log unreadable: %v", err)
	}
}

// A fragment's segments are in the order its rank logged them, which is
// time order. A segment out of place (CRC-valid, stamped before the
// segments recovered ahead of it) is counted skipped, as one that does not
// decode is, and the rest of the fragment is salvaged in order.
func TestSalvageSkipsASegmentOutOfPlace(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "run.clog2")
	abortedRun(t, prefix)
	var frag []byte
	for seq, at := range []float64{1, 3, 2, 4} {
		payload, err := clog2.AppendBlock(nil, 1, []clog2.Record{{Type: clog2.RecBareEvt, Time: at, Rank: 1, ID: 2}})
		if err != nil {
			t.Fatal(err)
		}
		at := len(frag)
		frag = append(append(frag, make([]byte, clog2.SegHeaderSize)...), payload...)
		clog2.FinalizeSegmentHeader(frag[at:], 1, uint64(seq))
	}
	if err := os.WriteFile(prefix+".rank1.spill", frag, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, merged := salvageToFile(t, prefix)
	r := rep.Ranks[1]
	if r.SegmentsRecovered != 3 || r.SegmentsSkipped != 1 || r.SegmentsMissing != 0 || r.Records != 3 {
		t.Fatalf("rank 1: %+v, want 3 segments recovered and 1 skipped", r)
	}
	br, err := clog2.NewBlockReader(bytes.NewReader(merged))
	if err != nil {
		t.Fatal(err)
	}
	var times []float64
	if err := br.Each(func(b clog2.Block) error {
		for _, rec := range b.Records {
			if rec.Rank == 1 {
				times = append(times, rec.Time)
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("merged log: %v", err)
	}
	if fmt.Sprint(times) != "[1 3 4]" {
		t.Fatalf("rank 1's salvaged stamps %v, want [1 3 4]", times)
	}
}

// An unreadable fragment (pure garbage) is quarantined wholesale and
// warned about; the other ranks still salvage.
func TestSalvageGarbageFragment(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "run.clog2")
	abortedRun(t, prefix)
	if err := os.WriteFile(prefix+".rank2.spill", bytes.Repeat([]byte{0x5a}, 300), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, merged := salvageToFile(t, prefix)
	if rep.RanksRecovered != 2 {
		t.Fatalf("salvaged %d ranks, want 2", rep.RanksRecovered)
	}
	var r2 *mpe.RankSalvage
	for i := range rep.Ranks {
		if rep.Ranks[i].Rank == 2 {
			r2 = &rep.Ranks[i]
		}
	}
	if r2 == nil || r2.Note != "unrecognized spill data" || r2.BytesQuarantined != 300 {
		t.Fatalf("garbage fragment accounting: %+v", r2)
	}
	if rep.Clean() {
		t.Fatal("garbage fragment counted as clean")
	}
	if _, err := clog2.ScanTable(bytes.NewReader(merged)); err != nil {
		t.Fatalf("merged log unreadable: %v", err)
	}
}

// The zero-denominator edge in the percentage math: a report with no
// segment accounting at all (empty spill family, fragments that decoded
// to nothing) must report 100% recovered rather than dividing by zero,
// and partial recoveries must render the exact percentage.
func TestSalvageRecoveryPct(t *testing.T) {
	empty := &mpe.SalvageReport{}
	if got := empty.RecoveryPct(); got != 100 {
		t.Errorf("empty report RecoveryPct = %v, want 100", got)
	}
	if s := empty.Summary(); strings.Contains(s, "%") {
		t.Errorf("empty report Summary should not render a percentage: %q", s)
	}

	partial := &mpe.SalvageReport{
		RanksRecovered: 2,
		Ranks: []mpe.RankSalvage{
			{Rank: 0, SegmentsRecovered: 3, SegmentsSkipped: 1},
			{Rank: 1, SegmentsRecovered: 3, SegmentsMissing: 1},
		},
	}
	if got := partial.RecoveryPct(); got != 75 {
		t.Errorf("RecoveryPct = %v, want 75 (6 of 8)", got)
	}
	if s := partial.Summary(); !strings.Contains(s, "75.0% recovered") {
		t.Errorf("Summary missing percentage: %q", s)
	}

	lost := &mpe.SalvageReport{
		Ranks: []mpe.RankSalvage{{Rank: 0, SegmentsMissing: 4}},
	}
	if got := lost.RecoveryPct(); got != 0 {
		t.Errorf("all-lost RecoveryPct = %v, want 0", got)
	}
}

// A fragment whose file name puts its rank past clog2.MaxRanks is skipped
// with a warning: the log salvage writes opens in every reader, where a
// stray x.rank2000000.spill used to make a 2 000 001-rank log that no
// reader would open.
func TestSalvageSkipsAFragmentPastMaxRanks(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "run.clog2")
	abortedRun(t, prefix)
	const rank = 2_000_000
	// AppendBlock refuses the rank, so the frame is built by hand.
	frame := clog2.AppendBlockHeader(make([]byte, clog2.SegHeaderSize), rank, 1)
	frame, _ = clog2.AppendRecord(frame, &clog2.Record{Type: clog2.RecBareEvt, Time: 1, Rank: rank, ID: 2})
	frame = append(frame, byte(clog2.RecEndBlock))
	clog2.FinalizeSegmentHeader(frame, rank, 0)
	if err := os.WriteFile(fmt.Sprintf("%s.rank%d.spill", prefix, rank), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, merged := salvageToFile(t, prefix)
	if rep.NumRanks != 3 || rep.RanksRecovered != 3 || !strings.Contains(strings.Join(rep.Warnings, "\n"), "rank 2000000 fragment skipped") {
		t.Fatalf("salvage over a rank-%d fragment: %d ranks, %d recovered, warnings %q", rank, rep.NumRanks, rep.RanksRecovered, rep.Warnings)
	}
	if table, err := clog2.ScanTable(bytes.NewReader(merged)); err != nil || table.NumRanks != 3 {
		t.Fatalf("the salvaged log: %v", err)
	}
}
