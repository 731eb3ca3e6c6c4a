package analyze

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/clog2"
	"repro/internal/stats"
)

// tb builds a synthetic CLOG-2 image in memory: one block per rank,
// records appended in call order, which must be each rank's time order
// (the rule of a block, clog2.Block).
type tb struct {
	t        testing.TB
	numRanks int
	recs     map[int32][]clog2.Record
	defs     []clog2.Record
}

func newTB(t testing.TB, numRanks int) *tb {
	return &tb{t: t, numRanks: numRanks, recs: map[int32][]clog2.Record{}}
}

func (b *tb) stateDef(id, startE, endE int32, name string) *tb {
	b.defs = append(b.defs, clog2.Record{Type: clog2.RecStateDef, ID: id, Aux1: startE, Aux2: endE, Name: name, Color: "green"})
	return b
}

func (b *tb) eventDef(etype int32, name string) *tb {
	b.defs = append(b.defs, clog2.Record{Type: clog2.RecEventDef, ID: etype, Name: name, Color: "orange"})
	return b
}

func (b *tb) bare(rank int32, t float64, etype int32) *tb {
	b.recs[rank] = append(b.recs[rank], clog2.Record{Type: clog2.RecBareEvt, Rank: rank, Time: t, ID: etype})
	return b
}

func (b *tb) cargo(rank int32, t float64, etype int32, text string) *tb {
	r := clog2.Record{Type: clog2.RecCargoEvt, Rank: rank, Time: t, ID: etype}
	r.SetCargo(text)
	b.recs[rank] = append(b.recs[rank], r)
	return b
}

// state logs a start/end pair for a state occupying [t0, t1].
func (b *tb) state(rank int32, t0, t1 float64, startE, endE int32) *tb {
	return b.bare(rank, t0, startE).bare(rank, t1, endE)
}

func (b *tb) msg(rank int32, t float64, dir uint8, peer, ch, size int32) *tb {
	b.recs[rank] = append(b.recs[rank], clog2.Record{
		Type: clog2.RecMsgEvt, Rank: rank, Time: t, Dir: dir, Aux1: peer, Aux2: ch, Aux3: size,
	})
	return b
}

func (b *tb) bytes() []byte {
	var buf bytes.Buffer
	w, err := clog2.NewWriter(&buf, b.numRanks)
	if err != nil {
		b.t.Fatalf("NewWriter: %v", err)
	}
	for rank := int32(0); rank < int32(b.numRanks); rank++ {
		recs := b.recs[rank]
		if rank == 0 {
			recs = append(append([]clog2.Record(nil), b.defs...), recs...)
		}
		if len(recs) == 0 {
			continue
		}
		if err := w.WriteBlock(rank, recs); err != nil {
			b.t.Fatalf("WriteBlock: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		b.t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// file writes the image to a fresh run.clog2 and returns its path.
func (b *tb) file() string {
	b.t.Helper()
	path := filepath.Join(b.t.TempDir(), "run.clog2")
	if err := os.WriteFile(path, b.bytes(), 0o644); err != nil {
		b.t.Fatal(err)
	}
	return path
}

func (b *tb) analyze(opts Options) *Report {
	b.t.Helper()
	rep, err := AnalyzeBytes(b.bytes(), opts)
	if err != nil {
		b.t.Fatalf("AnalyzeBytes: %v", err)
	}
	return rep
}

// withReadWrite installs the canonical blocking-state defs: PI_Read
// (Input) as state 1 (etypes 2/3) and PI_Write (Output) as state 2
// (etypes 4/5).
func (b *tb) withReadWrite() *tb {
	return b.stateDef(1, 2, 3, "PI_Read").stateDef(2, 4, 5, "PI_Write")
}

func TestCleanTraceIsClean(t *testing.T) {
	b := newTB(t, 2).withReadWrite()
	// Balanced causal messages, short states.
	b.state(0, 0.0, 0.001, 4, 5)
	b.msg(0, 0.10, clog2.DirSend, 1, 7, 8)
	b.state(1, 0.1, 0.101, 2, 3)
	b.msg(1, 0.11, clog2.DirRecv, 0, 7, 8)
	rep := b.analyze(Options{})
	if !rep.Clean || len(rep.Findings) != 0 {
		t.Fatalf("expected clean report, got findings %+v", rep.Findings)
	}
	if rep.ClockSuspect {
		t.Fatalf("causal trace flagged clock-suspect")
	}
	if rep.NumRanks != 2 {
		t.Fatalf("NumRanks = %d, want 2", rep.NumRanks)
	}
}

func TestDetectImbalance(t *testing.T) {
	b := newTB(t, 2).withReadWrite()
	b.msg(0, 0.1, clog2.DirSend, 1, 5, 8)
	b.msg(0, 0.2, clog2.DirSend, 1, 5, 8)
	b.msg(1, 0.3, clog2.DirRecv, 0, 5, 8)
	rep := b.analyze(Options{})
	if !rep.HasDetector(DetImbalance) {
		t.Fatalf("imbalance not detected: %v", rep.Detectors())
	}
	var f Finding
	for _, x := range rep.Findings {
		if x.Detector == DetImbalance {
			f = x
		}
	}
	if f.Channel != 5 || f.Value != 1 {
		t.Fatalf("imbalance finding %+v, want channel 5 value 1", f)
	}
	if !strings.Contains(f.Detail, "unread send") {
		t.Fatalf("detail %q", f.Detail)
	}
}

func TestDetectStraggler(t *testing.T) {
	b := newTB(t, 3).withReadWrite()
	// A cohort of quick PI_Reads plus one 2s outlier on rank 1.
	b.state(0, 0.00, 0.01, 2, 3)
	b.state(0, 0.02, 0.03, 2, 3)
	b.state(2, 0.00, 0.01, 2, 3)
	b.state(1, 0.00, 2.00, 2, 3)
	rep := b.analyze(Options{})
	if !rep.HasDetector(DetStraggler) {
		t.Fatalf("straggler not detected: %v", rep.Detectors())
	}
	for _, f := range rep.Findings {
		if f.Detector == DetStraggler {
			if f.Rank != 1 || f.State != "PI_Read" {
				t.Fatalf("straggler attributed to %+v, want rank 1 PI_Read", f)
			}
			if f.Time != 0 {
				t.Fatalf("straggler start time %v, want 0", f.Time)
			}
		}
	}
}

func TestStragglerIgnoresNonBlockingStates(t *testing.T) {
	b := newTB(t, 2)
	b.stateDef(1, 2, 3, "Compute") // Admin category
	b.state(0, 0, 0.01, 2, 3)
	b.state(1, 0, 5.0, 2, 3)
	rep := b.analyze(Options{})
	if rep.HasDetector(DetStraggler) {
		t.Fatalf("straggler fired on a non-blocking state")
	}
}

func TestStragglerNeedsCohort(t *testing.T) {
	b := newTB(t, 1).withReadWrite()
	b.state(0, 0, 5.0, 2, 3) // single occurrence: nothing to straggle from
	rep := b.analyze(Options{})
	if rep.HasDetector(DetStraggler) {
		t.Fatalf("straggler fired with count < 2")
	}
}

func TestDetectDominator(t *testing.T) {
	b := newTB(t, 2).withReadWrite()
	// Rank 1 wall [0, 2.0], of which 1.5s blocked in PI_Write.
	b.state(1, 0.0, 1.5, 4, 5)
	b.bare(1, 2.0, 6) // solo-ish unmatched etype to extend wall; etype 6 = state 3 start (parity), stays open
	b.state(0, 0.0, 0.001, 4, 5)
	rep := b.analyze(Options{})
	if !rep.HasDetector(DetDominator) {
		t.Fatalf("dominator not detected: %v", rep.Detectors())
	}
	for _, f := range rep.Findings {
		if f.Detector == DetDominator && f.Rank != 1 {
			t.Fatalf("dominator rank %d, want 1", f.Rank)
		}
	}
}

func TestDominatorIgnoresInputBlocking(t *testing.T) {
	// Input-blocked time is normal (a reader waiting for work); only
	// output-blocked time dominates.
	b := newTB(t, 1).withReadWrite()
	b.state(0, 0.0, 2.0, 2, 3) // PI_Read
	rep := b.analyze(Options{})
	if rep.HasDetector(DetDominator) {
		t.Fatalf("dominator fired on input-blocked time")
	}
}

func TestDetectHotspot(t *testing.T) {
	b := newTB(t, 2).withReadWrite()
	// Channel 9 holds messages in flight for 1s each; channel 10 is fast.
	b.msg(0, 0.0, clog2.DirSend, 1, 9, 8)
	b.msg(1, 1.0, clog2.DirRecv, 0, 9, 8)
	b.msg(0, 1.1, clog2.DirSend, 1, 10, 8)
	b.msg(1, 1.101, clog2.DirRecv, 0, 10, 8)
	rep := b.analyze(Options{})
	if !rep.HasDetector(DetHotspot) {
		t.Fatalf("hotspot not detected: %v", rep.Detectors())
	}
	for _, f := range rep.Findings {
		if f.Detector == DetHotspot && f.Channel != 9 {
			t.Fatalf("hotspot channel %d, want 9", f.Channel)
		}
	}
}

func TestDetectBacklog(t *testing.T) {
	b := newTB(t, 2).withReadWrite()
	// Ten sends pile up on channel 4 before the reader drains them.
	for i := 0; i < 10; i++ {
		b.msg(0, 0.001*float64(i), clog2.DirSend, 1, 4, 8)
	}
	for i := 0; i < 10; i++ {
		b.msg(1, 1.0+0.001*float64(i), clog2.DirRecv, 0, 4, 8)
	}
	rep := b.analyze(Options{})
	if !rep.HasDetector(DetBacklog) {
		t.Fatalf("backlog not detected: %v", rep.Detectors())
	}
	for _, f := range rep.Findings {
		if f.Detector == DetBacklog {
			if f.Channel != 4 || f.Value != 10 {
				t.Fatalf("backlog finding %+v, want channel 4 peak 10", f)
			}
		}
	}
}

func TestBacklogStandingAtEndOfTrace(t *testing.T) {
	// A crashed reader: sends pile up and nothing drains them; the
	// dwell must extend to the end of the trace.
	b := newTB(t, 2).withReadWrite()
	for i := 0; i < 9; i++ {
		b.msg(0, 0.001*float64(i), clog2.DirSend, 1, 4, 8)
	}
	b.bare(0, 2.0, 2) // trace extends well past the pile-up
	rep := b.analyze(Options{})
	if !rep.HasDetector(DetBacklog) {
		t.Fatalf("standing backlog not detected: %v", rep.Detectors())
	}
}

func TestDetectFaults(t *testing.T) {
	b := newTB(t, 2).withReadWrite()
	const faultE = clog2.SoloBase + 1
	b.eventDef(faultE, "FaultInjected")
	b.cargo(1, 0.5, faultE, "stall rank=1 op=2")
	b.cargo(1, 0.6, faultE, "stall rank=1 op=3")
	b.state(0, 0, 0.001, 4, 5)
	rep := b.analyze(Options{})
	if !rep.HasDetector(DetFault) {
		t.Fatalf("fault correlation missing: %v", rep.Detectors())
	}
	for _, f := range rep.Findings {
		if f.Detector == DetFault {
			if f.Rank != 1 || f.State != "stall" || f.Value != 2 || f.Severity != "info" {
				t.Fatalf("fault finding %+v", f)
			}
		}
	}
}

func TestDeadlockEventCorrelated(t *testing.T) {
	b := newTB(t, 1)
	const dlE = clog2.SoloBase + 2
	b.eventDef(dlE, "Deadlock")
	b.cargo(0, 0.1, dlE, "cycle: 0 -> 1 -> 0")
	rep := b.analyze(Options{})
	if !rep.HasDetector(DetFault) {
		t.Fatalf("deadlock event not correlated")
	}
	f := rep.Findings[0]
	if f.State != "Deadlock" || !strings.Contains(f.Detail, "deadlock diagnosis") {
		t.Fatalf("deadlock finding %+v", f)
	}
}

func TestClockSuspectSkipsTimingDetectors(t *testing.T) {
	b := newTB(t, 2).withReadWrite()
	// Recv before its send: synthetic clocks. The same shape would be a
	// screaming hotspot with sane clocks.
	b.msg(0, 5.0, clog2.DirSend, 1, 9, 8)
	b.msg(1, 0.0, clog2.DirRecv, 0, 9, 8)
	for i := 0; i < 10; i++ {
		b.msg(0, 5.0, clog2.DirSend, 1, 4, 8)
		b.msg(1, 0.0, clog2.DirRecv, 0, 4, 8)
	}
	rep := b.analyze(Options{})
	if !rep.ClockSuspect {
		t.Fatalf("non-causal pairs not flagged")
	}
	if rep.HasDetector(DetHotspot) || rep.HasDetector(DetBacklog) {
		t.Fatalf("timing detectors ran on clock-suspect trace: %v", rep.Detectors())
	}
}

func TestEmptyTrace(t *testing.T) {
	b := newTB(t, 1)
	rep := b.analyze(Options{})
	if !rep.Clean || rep.Records != 0 || rep.WallSec != 0 {
		t.Fatalf("empty trace report %+v", rep)
	}
}

func TestAllDefsTrace(t *testing.T) {
	b := newTB(t, 1).withReadWrite()
	b.eventDef(clog2.SoloBase+1, "FaultInjected")
	rep := b.analyze(Options{})
	if !rep.Clean || rep.Records != 0 {
		t.Fatalf("defs-only trace report: clean=%v records=%d", rep.Clean, rep.Records)
	}
}

func TestDefsLessParityFallback(t *testing.T) {
	// Salvaged logs can lose the definition table; the parity fallback
	// must still pair etype 2k/2k+1 into state k.
	b := newTB(t, 2)
	b.state(0, 0, 0.01, 2, 3)
	b.state(1, 0, 2.0, 2, 3)
	rep := b.analyze(Options{})
	// "state 1" has category Other, so no straggler — but pairing must
	// produce sane records/wall accounting without panicking.
	if rep.Records != 4 {
		t.Fatalf("records = %d, want 4", rep.Records)
	}
	if math.Abs(rep.WallSec-2.0) > 1e-9 {
		t.Fatalf("wall = %v, want 2.0", rep.WallSec)
	}
}

func TestSingleRankTrace(t *testing.T) {
	b := newTB(t, 1).withReadWrite()
	b.state(0, 0, 0.01, 2, 3)
	b.state(0, 0.02, 0.03, 4, 5)
	rep := b.analyze(Options{})
	if !rep.Clean {
		t.Fatalf("single-rank clean trace produced findings: %v", rep.Findings)
	}
}

// A record stamped NaN or ±Inf used to be counted by the profile and
// dropped by the analyzer, then dropped by both. It breaks the rule of a
// block (clog2.Block) now: a Writer refuses it, and the analyzer refuses a
// log byte-built to hold it, by name, wherever it lies in its rank's run.
func TestHostileTimestampsRefused(t *testing.T) {
	for _, c := range []struct {
		name  string
		times []float64
		want  string
	}{
		{"NaN first", []float64{math.NaN(), math.Inf(1), 0, 0.01}, "clog2: a BareEvt record of rank 0 stamped NaN"},
		{"+Inf first", []float64{math.Inf(1), math.NaN(), 0, 0.01}, "clog2: a BareEvt record of rank 0 stamped +Inf"},
		{"-Inf after a state", []float64{0, 0.01, math.Inf(-1), 0.02}, "clog2: a BareEvt record of rank 0 stamped -Inf"},
	} {
		b := newTB(t, 1).withReadWrite()
		for i, at := range c.times {
			b.bare(0, at, int32(2+i%2))
		}
		recs := append(append([]clog2.Record(nil), b.defs...), b.recs[0]...)
		if _, err := clog2.AppendBlock(nil, 0, recs); err == nil || err.Error() != c.want {
			t.Errorf("%s: AppendBlock gives %v, want %s", c.name, err, c.want)
		}
		log := clog2.AppendBlockHeader(clog2.AppendHeader(nil, 1), 0, len(recs))
		for i := range recs {
			log, _ = clog2.AppendRecord(log, &recs[i])
		}
		log = append(log, byte(clog2.RecEndBlock), byte(clog2.RecEndLog))
		if _, err := AnalyzeBytes(log, Options{}); err == nil || err.Error() != c.want {
			t.Errorf("%s: AnalyzeBytes gives %v, want %s", c.name, err, c.want)
		}
	}
}

func TestWindowedAnalysis(t *testing.T) {
	b := newTB(t, 1).withReadWrite()
	b.state(0, 0, 0.01, 2, 3)
	b.state(0, 10, 10.01, 2, 3)
	rep, err := AnalyzeFileWindowed(b.file(), math.Inf(-1), 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 2 {
		t.Fatalf("windowed records = %d, want 2", rep.Records)
	}
	if rep.Window == nil || rep.Window.T1 == nil || *rep.Window.T1 != 5 {
		t.Fatalf("window not echoed: %+v", rep.Window)
	}
}

func TestMsgEventCapTruncates(t *testing.T) {
	b := newTB(t, 2).withReadWrite()
	for i := 0; i < 6; i++ {
		b.msg(0, 0.001*float64(i), clog2.DirSend, 1, 4, 8)
		b.msg(1, 0.002*float64(i), clog2.DirRecv, 0, 4, 8)
	}
	rep := b.analyze(Options{MaxMsgEvents: 4})
	if !rep.MsgEventsTruncated {
		t.Fatalf("truncation not reported")
	}
	// The header's two ranks share the cap: rank 0 keeps its first
	// ceil(cap/2) sends and rank 1 its first floor(cap/2) receives,
	// whatever the worker count, through the table or as a stream, and
	// no more than the cap in all.
	data := b.bytes()
	key := clog2.MsgKey{Src: 0, Dst: 1, Tag: 4}
	for limit, want := range map[int][2][]float64{
		4: {{0, 0.001}, {0, 0.002}},
		5: {{0, 0.001, 0.002}, {0, 0.002}},
	} {
		for _, workers := range []int{1, 2, 8} {
			for name, in := range map[string]clog2.Input{"table": tabled(data), "stream": clog2.StreamInput(bytes.NewReader(data))} {
				c, _, err := collect(in, Options{MaxMsgEvents: limit}, math.Inf(-1), math.Inf(1), workers)
				if err != nil {
					t.Fatal(err)
				}
				got := map[clog2.MsgKey][2][]float64{}
				c.msgs.Match(func(k clog2.MsgKey, sends, recvs []clog2.MsgHalf) {
					var times [2][]float64
					for i, hs := range [][]clog2.MsgHalf{sends, recvs} {
						for _, h := range hs {
							times[i] = append(times[i], h.Time)
						}
					}
					got[k] = times
				})
				if !c.truncated || !reflect.DeepEqual(got, map[clog2.MsgKey][2][]float64{key: want}) {
					t.Errorf("cap %d, %d workers, %s: truncated %v, kept %v; want %v", limit, workers, name, c.truncated, got, want)
				}
			}
		}
	}
}

// writeProfile writes p as the .profile.json a repository keeps beside
// the raw log at clogPath.
func writeProfile(t *testing.T, clogPath string, p *stats.Profile) {
	t.Helper()
	pj, err := p.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(strings.TrimSuffix(clogPath, ".clog2")+".profile.json", pj, 0o644); err != nil {
		t.Fatal(err)
	}
}

// The log alone decides: with no profile beside it, its own, or one
// that counts another log's records, AnalyzeFile gives the verdict
// Analyze gives from the bytes.
func TestAnalyzeFileIgnoresSidecar(t *testing.T) {
	b := newTB(t, 2).withReadWrite()
	b.state(0, 0, 0.001, 4, 5)
	b.state(1, 0.1, 0.101, 2, 3)
	data := b.bytes()
	clog := b.file()
	want, err := AnalyzeBytes(data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := want.JSON()
	check := func(what string) {
		t.Helper()
		rep, err := AnalyzeFile(clog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := rep.JSON(); !bytes.Equal(got, wantJSON) {
			t.Fatalf("%s: AnalyzeFile differs from Analyze of the bytes:\n%s", what, got)
		}
	}
	check("no sidecar")
	prof, err := stats.ComputeProfile(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	writeProfile(t, clog, prof)
	check("matching sidecar")
	prof.Totals.Records += 7
	writeProfile(t, clog, prof)
	check("stale sidecar")
}

// A profile beside the log that agrees on the record count but not on
// the durations cannot hide a straggler: the baseline is the log's.
func TestDoctoredSidecarCannotHideStraggler(t *testing.T) {
	b := newTB(t, 3).withReadWrite()
	b.state(0, 0.00, 0.01, 2, 3)
	b.state(0, 0.02, 0.03, 2, 3)
	b.state(2, 0.00, 0.01, 2, 3)
	b.state(1, 0.00, 2.00, 2, 3)
	clog := b.file()
	prof, err := stats.ComputeProfileFile(clog)
	if err != nil {
		t.Fatal(err)
	}
	for i := range prof.States {
		prof.States[i].P50Sec = 1
	}
	writeProfile(t, clog, prof)
	rep, err := AnalyzeFile(clog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasDetector(DetStraggler) {
		t.Fatalf("straggler hidden by the doctored profile: %v", rep.Detectors())
	}
}

func TestFormatRendersFindings(t *testing.T) {
	b := newTB(t, 2).withReadWrite()
	b.msg(0, 0.1, clog2.DirSend, 1, 5, 8)
	rep := b.analyze(Options{})
	out := rep.Format()
	if !strings.Contains(out, DetImbalance) || !strings.Contains(out, "chan=5") {
		t.Fatalf("Format output:\n%s", out)
	}
	clean := newTB(t, 1).withReadWrite().analyze(Options{})
	if !strings.Contains(clean.Format(), "clean") {
		t.Fatalf("clean Format output:\n%s", clean.Format())
	}
}

// The verdict does not depend on how the stream hands its bytes over: a
// reader that gives one byte a call reads to the same report as the image.
func TestAnalyzeReaderMatchesBytes(t *testing.T) {
	b := newTB(t, 2).withReadWrite()
	b.msg(0, 0.1, clog2.DirSend, 1, 5, 8)
	data := b.bytes()
	r1, err := Analyze(iotest.OneByteReader(bytes.NewReader(data)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := AnalyzeBytes(data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := r1.JSON()
	j2, _ := r2.JSON()
	if !bytes.Equal(j1, j2) {
		t.Fatalf("Analyze and AnalyzeBytes disagree")
	}
}

// readCounter counts the bytes a reader hands out.
type readCounter struct {
	r io.Reader
	n int
}

func (rc *readCounter) Read(p []byte) (int, error) {
	n, err := rc.r.Read(p)
	rc.n += n
	return n, err
}

// The collector and the profile come out of one decode of the log:
// Analyze reads its stream once, and AnalyzeBytes (a reader over the
// image) allocates one 64 KiB decoder buffer, not two.
func TestAnalyzeDecodesTheLogOnce(t *testing.T) {
	b := newTB(t, 2).withReadWrite()
	for i := 0; i < 200; i++ {
		b.state(int32(i%2), float64(i), float64(i)+0.5, 2, 3)
	}
	data := b.bytes()
	rc := &readCounter{r: bytes.NewReader(data)}
	rep, err := Analyze(rc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rc.n != len(data) {
		t.Fatalf("Analyze read %d bytes of a %d-byte log", rc.n, len(data))
	}
	if rep.Records != 400 {
		t.Fatalf("report %+v", rep)
	}
	// The walk's 480 KiB block buffer comes from a sync.Pool, which may miss
	// (it is per P, and under the race detector drops a Put in four): the
	// least of a few calls is what the call itself allocates.
	least := uint64(math.MaxUint64)
	for try := 0; try < 20 && least >= 2*64<<10; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := AnalyzeBytes(data, Options{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 2*64<<10 {
		t.Fatalf("AnalyzeBytes allocated %d bytes: room for two decoder buffers", least)
	}
}

func TestAnalyzeCorruptInputErrors(t *testing.T) {
	if _, err := AnalyzeBytes([]byte("not a clog2 file at all"), Options{}); err == nil {
		t.Fatalf("corrupt input accepted")
	}
}

// Messages match per (src, dst, tag), as the converter draws its arrows:
// rank 0's unread send on tag 5 is not paired with rank 1's receive from
// rank 2, which matching per tag alone did, reading 1.5s in flight
// where the one real message spent 0.5s.
func TestMatchChannelsPerRankPair(t *testing.T) {
	data := newTB(t, 3).withReadWrite().
		msg(0, 0, clog2.DirSend, 1, 5, 8).
		msg(2, 1, clog2.DirSend, 1, 5, 8).
		msg(1, 1.5, clog2.DirRecv, 2, 5, 8).
		bytes()
	c, _, err := collect(tabled(data), Options{}, math.Inf(-1), math.Inf(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if ps := matchChannels(c); ps.matched[5] != 1 || ps.inflight[5] != 0.5 {
		t.Fatalf("channel 5: %d matched, %gs in flight; want 1 and 0.5s", ps.matched[5], ps.inflight[5])
	}
}

// AnalyzeBytes is Analyze over an in-memory CLOG-2 image.
func AnalyzeBytes(data []byte, opts Options) (*Report, error) {
	return Analyze(bytes.NewReader(data), opts)
}

// tabled is the in-memory CLOG-2 image data, read through its block table.
func tabled(data []byte) clog2.Input {
	return clog2.TableInput(clog2.Source{R: bytes.NewReader(data), Size: int64(len(data))})
}

// DiffBytes diffs two in-memory CLOG-2 images, on GOMAXPROCS workers.
func DiffBytes(a, b []byte, nameA, nameB string, opts DiffOptions) (*DiffReport, error) {
	srcs := [2]clog2.Source{{R: bytes.NewReader(a), Size: int64(len(a))}, {R: bytes.NewReader(b), Size: int64(len(b))}}
	return diffLogs(srcs, [2]string{nameA, nameB}, opts, runtime.GOMAXPROCS(0))
}

// HasDetector reports whether any finding came from the named detector.
func (r *Report) HasDetector(name string) bool {
	for _, f := range r.Findings {
		if f.Detector == name {
			return true
		}
	}
	return false
}

// Detectors returns the distinct detector names that fired, sorted.
func (r *Report) Detectors() []string {
	seen := map[string]bool{}
	for _, f := range r.Findings {
		seen[f.Detector] = true
	}
	out := make([]string, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}
