// Package repro's root benchmarks regenerate the paper's tables and
// figures under `go test -bench`, one benchmark family per artefact:
//
//	BenchmarkT1_*   Section III.E overhead table cells
//	BenchmarkF1_*   Fig. 1 pipeline log: conversion and rendering
//	BenchmarkF3_*   Fig. 3 lab2 run
//	BenchmarkF4_*   Fig. 4 fixed vs instance A
//	BenchmarkF5_*   Fig. 5 instance B
//	BenchmarkA1_*   arrow-spread ablation
//	BenchmarkA2_*   frame-size ablation
//	Benchmark micro-costs: per-event logging, channel round trips, codec,
//	CSV parsing
//
// cmd/pilot-bench prints the full tables with shape checks against the
// paper; these benchmarks give the same workloads testing.B treatment.
package repro_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/clog2"
	"repro/internal/collisions"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/jpeglite"
	"repro/internal/jumpshot"
	"repro/internal/lab2"
	"repro/internal/mpe"
	"repro/internal/mpi"
	"repro/internal/slog2"
	"repro/internal/stats"
	"repro/internal/thumbnail"
	"repro/vis"
)

// benchThumb runs one overhead-table cell per iteration.
func benchThumb(b *testing.B, workProcs int, services string) {
	b.Helper()
	dir := b.TempDir()
	for i := 0; i < b.N; i++ {
		cfg := thumbnail.Config{
			Workers:    workProcs - 1,
			NumImages:  24,
			ImageW:     96,
			ImageH:     64,
			Seed:       int64(i),
			StageDelay: 2 * time.Millisecond,
			Core: core.Config{
				Services:     services,
				CheckLevel:   3,
				JumpshotPath: filepath.Join(dir, "bench.clog2"),
				NativePath:   filepath.Join(dir, "bench.log"),
			},
		}
		if services == "c" {
			cfg.Workers = workProcs - 2 // service rank displaces a worker
		}
		res, err := thumbnail.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Thumbnails != cfg.NumImages {
			b.Fatalf("%d thumbnails", res.Thumbnails)
		}
	}
}

func BenchmarkT1_NoLog_5(b *testing.B)   { benchThumb(b, 5, "") }
func BenchmarkT1_MPE_5(b *testing.B)     { benchThumb(b, 5, "j") }
func BenchmarkT1_Native_5(b *testing.B)  { benchThumb(b, 5, "c") }
func BenchmarkT1_NoLog_10(b *testing.B)  { benchThumb(b, 10, "") }
func BenchmarkT1_MPE_10(b *testing.B)    { benchThumb(b, 10, "j") }
func BenchmarkT1_Native_10(b *testing.B) { benchThumb(b, 10, "c") }

// fig1CLOG produces one Fig. 1-style log for the conversion benchmarks.
func fig1CLOG(b *testing.B) string {
	b.Helper()
	dir := b.TempDir()
	clog := filepath.Join(dir, "fig1.clog2")
	cfg := thumbnail.Config{
		Workers:   9,
		NumImages: 60,
		ImageW:    96,
		ImageH:    64,
		Core: core.Config{
			Services:     "j",
			CheckLevel:   3,
			JumpshotPath: clog,
		},
	}
	if _, err := thumbnail.Run(cfg); err != nil {
		b.Fatal(err)
	}
	return clog
}

func BenchmarkF1_ConvertCLOGToSLOG(b *testing.B) {
	clog := fig1CLOG(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rep, err := vis.ConvertFile(clog, vis.ConvertOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.NestingErrors != 0 {
			b.Fatal("conversion errors")
		}
	}
}

func BenchmarkF1_RenderSVG(b *testing.B) {
	clog := fig1CLOG(b)
	f, _, err := vis.ConvertFile(clog, vis.ConvertOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := jumpshot.AppendSVG(nil, f, vis.View{}); len(out) == 0 {
			b.Fatal("empty render")
		}
	}
}

func BenchmarkF2_RenderZoomed(b *testing.B) {
	clog := fig1CLOG(b)
	f, _, err := vis.ConvertFile(clog, vis.ConvertOptions{})
	if err != nil {
		b.Fatal(err)
	}
	span := f.End - f.Start
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jumpshot.AppendSVG(nil, f, vis.View{From: f.Start + span*0.45, To: f.Start + span*0.55})
	}
}

func BenchmarkF3_Lab2(b *testing.B) {
	dir := b.TempDir()
	for i := 0; i < b.N; i++ {
		cfg := lab2.Config{W: 5, NUM: 10000, Seed: int64(i)}
		cfg.Core.Services = "j"
		cfg.Core.JumpshotPath = filepath.Join(dir, "lab2.clog2")
		if _, err := lab2.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCollisions(b *testing.B, run func(collisions.Config) (*collisions.Result, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg := collisions.Config{
			Workers: 4, Rows: 8000, Seed: 7,
			QueryCost: 10, QuerySleepPerRow: 2 * time.Microsecond,
			ReadSleepPerRow: time.Microsecond,
		}
		res, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Answers) == 0 {
			b.Fatal("no answers")
		}
	}
}

func BenchmarkF4_Fixed(b *testing.B)     { benchCollisions(b, collisions.RunFixed) }
func BenchmarkF4_InstanceA(b *testing.B) { benchCollisions(b, collisions.RunInstanceA) }
func BenchmarkF5_InstanceB(b *testing.B) { benchCollisions(b, collisions.RunInstanceB) }

func BenchmarkA1_ArrowSpread(b *testing.B) {
	// A broadcast/gather round over 4 workers: the collective fan-out the
	// spread delay actually applies to. "off" vs "1ms" quantifies the
	// workaround's cost (paper: "the injected delay hardly impacts the
	// program's execution" against compute-bound work).
	for _, spread := range []struct {
		name  string
		value time.Duration
	}{{"off", -1}, {"1ms", time.Millisecond}} {
		b.Run(spread.name, func(b *testing.B) {
			dir := b.TempDir()
			for i := 0; i < b.N; i++ {
				const W = 4
				cfg := core.Config{
					NumProcs:     W + 1,
					Services:     "j",
					ArrowSpread:  spread.value,
					JumpshotPath: filepath.Join(dir, "a1.clog2"),
				}
				r, err := core.NewRuntime(cfg)
				if err != nil {
					b.Fatal(err)
				}
				to := make([]*core.Channel, W)
				from := make([]*core.Channel, W)
				worker := func(self *core.Self, index int, arg any) int {
					var v int
					if err := to[index].Read("%d", &v); err != nil {
						return 1
					}
					if err := from[index].Write("%*d", 1, []int{v * 2}); err != nil {
						return 1
					}
					return 0
				}
				for j := 0; j < W; j++ {
					p, err := r.CreateProcess(worker, j, nil)
					if err != nil {
						b.Fatal(err)
					}
					if to[j], err = r.CreateChannel(r.MainProc(), p); err != nil {
						b.Fatal(err)
					}
					if from[j], err = r.CreateChannel(p, r.MainProc()); err != nil {
						b.Fatal(err)
					}
				}
				bc, err := r.CreateBundle(core.UsageBroadcast, to...)
				if err != nil {
					b.Fatal(err)
				}
				ga, err := r.CreateBundle(core.UsageGather, from...)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := r.StartAll(); err != nil {
					b.Fatal(err)
				}
				if err := bc.Broadcast("%d", i); err != nil {
					b.Fatal(err)
				}
				buf := make([]int, W)
				if err := ga.Gather("%*d", W, buf); err != nil {
					b.Fatal(err)
				}
				if err := r.StopMain(0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkA2_FrameSize(b *testing.B) {
	clog := fig1CLOG(b)
	for _, capacity := range []int{16, 64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("capacity=%d", capacity), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f, _, err := vis.ConvertFile(clog, vis.ConvertOptions{FrameCapacity: capacity})
				if err != nil {
					b.Fatal(err)
				}
				span := f.End - f.Start
				t0, t1 := f.Start+span*0.45, f.Start+span*0.55
				f.States(t0, t1)
				f.Arrows(t0, t1)
				f.Events(t0, t1)
			}
		})
	}
}

// BenchmarkConvertParallel measures CLOG-2 → SLOG-2 conversion at several
// worker-pool sizes over the Fig. 1 log. The output is byte-identical at
// every setting, so only ns/op and allocs/op move.
func BenchmarkConvertParallel(b *testing.B) {
	clog := fig1CLOG(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, rep, err := vis.ConvertFile(clog, vis.ConvertOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if rep.NestingErrors != 0 {
					b.Fatal("conversion errors")
				}
			}
		})
	}
}

// scanCLOG generates an 8-rank log of about records timed records in
// 2048-record rank blocks: nested states with cargo, matched messages and
// solo events, each rank in time order — the shape of a merged run, at
// the size where a tool's cost is its cost per record.
func scanCLOG(b testing.TB, records int) []byte {
	b.Helper()
	const ranks, perBlock = 8, 2048
	var buf bytes.Buffer
	w, err := clog2.NewWriter(&buf, ranks)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.WriteBlock(0, []clog2.Record{
		{Type: clog2.RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Color: "green", Name: "PI_Write"},
		{Type: clog2.RecStateDef, ID: 2, Aux1: 4, Aux2: 5, Color: "red", Name: "PI_Read"},
		{Type: clog2.RecEventDef, ID: 1<<20 + 1, Color: "yellow", Name: "MsgArrival"},
	}); err != nil {
		b.Fatal(err)
	}
	cargo := func(t float64, rank, etype int32, text string) clog2.Record {
		r := clog2.Record{Type: clog2.RecCargoEvt, Time: t, Rank: rank, ID: etype}
		r.SetCargo(text)
		return r
	}
	blocks := make([][]clog2.Record, ranks)
	emit := func(rank int32, recs ...clog2.Record) {
		blocks[rank] = append(blocks[rank], recs...)
		if len(blocks[rank]) >= perBlock {
			if err := w.WriteBlock(rank, blocks[rank]); err != nil {
				b.Fatal(err)
			}
			blocks[rank] = blocks[rank][:0]
		}
	}
	for i, n := 0, 0; n < records; i, n = i+1, n+7 {
		src := int32(i % ranks)
		dst := (src + 1) % ranks
		t := float64(i) * 1e-5
		emit(src, cargo(t, src, 2, "line: 17 proc: P3"),
			clog2.Record{Type: clog2.RecMsgEvt, Time: t + 1e-6, Rank: src, Dir: clog2.DirSend, Aux1: dst, Aux2: src % 4, Aux3: 256},
			clog2.Record{Type: clog2.RecBareEvt, Time: t + 4e-6, Rank: src, ID: 3})
		emit(dst, cargo(t+5e-6, dst, 4, "line: 42"),
			clog2.Record{Type: clog2.RecMsgEvt, Time: t + 6e-6, Rank: dst, Dir: clog2.DirRecv, Aux1: src, Aux2: src % 4, Aux3: 256},
			cargo(t+7e-6, dst, 1<<20+1, "arrived"),
			clog2.Record{Type: clog2.RecBareEvt, Time: t + 8e-6, Rank: dst, ID: 5})
	}
	for rank, recs := range blocks {
		if err := w.WriteBlock(int32(rank), recs); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkBlockReaderScan is the floor under every post-run tool: one
// NextReuse walk of a 500 000-record log, nothing done with the records.
// MB/s is the figure to watch. The reader is opened once and sought back
// behind the definitions block for every walk, so allocs/op is what
// decoding timed records costs: nothing.
func BenchmarkBlockReaderScan(b *testing.B) {
	data := scanCLOG(b, 500_000)
	br, err := clog2.NewBlockReaderAt(bytes.NewReader(data), int64(clog2.HeaderSize), 8)
	if err != nil {
		b.Fatal(err)
	}
	defs, err := br.NextReuse(nil)
	if err != nil || defs.Records[0].Type != clog2.RecStateDef {
		b.Fatalf("first block %+v, err %v", defs, err)
	}
	_, timed := br.BlockBounds()
	buf := make([]clog2.Record, 0, 4096)
	b.SetBytes(int64(len(data)) - timed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := br.SeekTo(timed); err != nil {
			b.Fatal(err)
		}
		for {
			blk, err := br.NextReuse(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			buf = blk.Records
		}
	}
}

// BenchmarkFoldProfile profiles the same log: the scan above plus the
// fold and the profile's observer on every record, so the difference
// between the two MB/s figures is the fold's per-record cost. The log is
// a file, read rank by rank through its block table on GOMAXPROCS workers
// (make bench runs it at -cpu 1,2).
func BenchmarkFoldProfile(b *testing.B) {
	data := scanCLOG(b, 500_000)
	path := filepath.Join(b.TempDir(), "scan.clog2")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := stats.ComputeProfileFile(path)
		if err != nil {
			b.Fatal(err)
		}
		// The generator writes seven records a message, one of them the send.
		if p.Totals.Records < 500_000 || p.Totals.Records != 7*p.Totals.Sends || p.Unpaired != 0 {
			b.Fatalf("profiled %d record(s), %d send(s), %d unpaired", p.Totals.Records, p.Totals.Sends, p.Unpaired)
		}
	}
}

// BenchmarkConvertReader converts the same log, read through an
// io.ReaderAt rank by rank on GOMAXPROCS workers (make bench runs it at
// -cpu 1,2); B/op over 500 000 is the converter's allocation per record.
func BenchmarkConvertReader(b *testing.B) {
	data := scanCLOG(b, 500_000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := clog2.Source{R: bytes.NewReader(data), Size: int64(len(data))}
		_, rep, err := slog2.ConvertInput(clog2.TableInput(src), slog2.ConvertOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.NestingErrors != 0 || len(rep.Warnings) != 0 {
			b.Fatalf("conversion report %+v", rep)
		}
	}
}

// BenchmarkMPE_FinishMerge exercises the collective wrap-up: every rank
// logs a fixed load of state pairs, then Finish syncs clocks and merges
// all buffers into one CLOG-2 stream on rank 0. 8x1000 is the shape of a
// lab run, where the world's set-up dominates allocs/op; 2x200000 is the
// ping-pong benchmark's, where a rank's block is megabytes and whatever
// the merge holds per record shows in B/op.
func BenchmarkMPE_FinishMerge(b *testing.B) {
	for _, shape := range []struct{ ranks, pairs int }{{8, 1000}, {2, 100000}} {
		b.Run(fmt.Sprintf("%dx%d", shape.ranks, shape.pairs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := mpi.NewWorld(shape.ranks, mpi.Options{})
				g := mpe.NewGroup(w, true)
				sid := g.DescribeState("PI_Write", "green")
				errs := w.Run(func(r *mpi.Rank) error {
					l := g.Logger(r.ID())
					for j := 0; j < shape.pairs; j++ {
						l.StateStart(sid, "line: bench.go:1")
						l.StateEnd(sid, "cargo")
					}
					if r.ID() == 0 {
						return l.Finish(io.Discard)
					}
					return l.Finish(nil)
				})
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// ---- micro-benchmarks: the costs the overhead table aggregates ----

func BenchmarkMPE_StateStartEnd(b *testing.B) {
	w := mpi.NewWorld(1, mpi.Options{})
	g := mpe.NewGroup(w, true)
	sid := g.DescribeState("PI_Write", "green")
	l := g.Logger(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.StateStart(sid, "line: x.go:1")
		l.StateEnd(sid, "")
	}
}

func BenchmarkMPE_Disabled(b *testing.B) {
	w := mpi.NewWorld(1, mpi.Options{})
	g := mpe.NewGroup(w, false)
	sid := g.DescribeState("PI_Write", "green")
	l := g.Logger(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.StateStart(sid, "line: x.go:1")
		l.StateEnd(sid, "")
	}
}

// BenchmarkChannelRoundTrip bounces a %d between PI_MAIN and a worker:
// one op is a round trip, two Writes and two Reads. Its rows switch the
// runtime's layers on one at a time through Config alone: the error-check
// level (0 against 3), the MPE log ("j") and the spill that writes every
// record through to disk (RobustLog). The difference between two rows is
// what a layer costs a round trip, in ns, B and allocs;
// BenchmarkTransportPingPong (internal/mpi) is the bare transport under
// them all. A logged row keeps its whole log until StopMain (about 0.6 KB
// a round trip), so run it at a fixed -benchtime count.
func BenchmarkChannelRoundTrip(b *testing.B) {
	rows := []struct {
		name     string
		level    int
		services string
		spill    bool
	}{
		{"level0/nolog", 0, "", false},
		{"level3/nolog", 3, "", false},
		{"level0/mpe", 0, "j", false},
		{"level3/mpe", 3, "j", false},
		{"level3/mpe+spill", 3, "j", true},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			cfg := core.Config{NumProcs: 2, Services: row.services, CheckLevel: row.level, RobustLog: row.spill,
				JumpshotPath: filepath.Join(b.TempDir(), "x.clog2")}
			r, err := core.NewRuntime(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var toW, fromW *core.Channel
			p, _ := r.CreateProcess(func(self *core.Self, index int, arg any) int {
				var v int
				for {
					if err := toW.Read("%d", &v); err != nil {
						return 1
					}
					if v < 0 {
						return 0
					}
					if err := fromW.Write("%d", v+1); err != nil {
						return 1
					}
				}
			}, 0, nil)
			toW, _ = r.CreateChannel(r.MainProc(), p)
			fromW, _ = r.CreateChannel(p, r.MainProc())
			if _, err := r.StartAll(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var v int
				if err := toW.Write("%d", i); err != nil {
					b.Fatal(err)
				}
				if err := fromW.Read("%d", &v); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := toW.Write("%d", -1); err != nil {
				b.Fatal(err)
			}
			if err := r.StopMain(0); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkJpegliteSynthetic(b *testing.B) {
	b.SetBytes(192 * 128)
	for i := 0; i < b.N; i++ {
		jpeglite.Synthetic(192, 128, int64(i))
	}
}

func BenchmarkJpegliteEncode(b *testing.B) {
	im := jpeglite.Synthetic(192, 128, 1)
	b.SetBytes(int64(len(im.Pix)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jpeglite.Encode(im, 75)
	}
}

func BenchmarkJpegliteDecode(b *testing.B) {
	data := jpeglite.Encode(jpeglite.Synthetic(192, 128, 1), 75)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jpeglite.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCollisionsParse(b *testing.B) {
	data := collisions.GenerateCSV(10000, 1)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := collisions.ParseSegment(data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestExperimentsSmall runs the full experiment suite at a reduced scale:
// the regression test that every table and figure still regenerates.
func TestExperimentsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite")
	}
	opt := experiments.Options{
		OutDir:     t.TempDir(),
		Runs:       2,
		Images:     30,
		Rows:       10000,
		StageDelay: 2 * time.Millisecond,
	}
	rows, err := experiments.RunT1(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("T1 rows = %d", len(rows))
	}
	f1, err := experiments.RunF1(opt)
	if err != nil {
		t.Fatal(err)
	}
	if f1.ConversionErrors != 0 {
		t.Errorf("F1 conversion errors: %d", f1.ConversionErrors)
	}
	if f1.Ranks != 11 {
		t.Errorf("F1 ranks = %d, want 11", f1.Ranks)
	}
	f2, err := experiments.RunF2(opt, f1)
	if err != nil {
		t.Fatal(err)
	}
	if f2.ComputeFraction < 0.3 {
		t.Errorf("F2 compute fraction %.2f", f2.ComputeFraction)
	}
	f3, err := experiments.RunF3(opt)
	if err != nil {
		t.Fatal(err)
	}
	if f3.Arrows != 15 || f3.Timelines != 6 || !f3.SequencesOK {
		t.Errorf("F3 %+v", f3)
	}
	f4, err := experiments.RunF4(opt)
	if err != nil {
		t.Fatal(err)
	}
	if f4.OverlapA >= f4.OverlapFixed {
		t.Errorf("F4 overlap A=%.3f fixed=%.3f", f4.OverlapA, f4.OverlapFixed)
	}
	f5, err := experiments.RunF5(opt)
	if err != nil {
		t.Fatal(err)
	}
	if f5.ReadShare < 0.5 {
		t.Errorf("F5 read share %.2f", f5.ReadShare)
	}
	a1, err := experiments.RunA1(opt)
	if err != nil {
		t.Fatal(err)
	}
	if a1.EqualDrawablesNoSpread == 0 || a1.EqualDrawablesSpread != 0 {
		t.Errorf("A1 %+v", a1)
	}
	a2, err := experiments.RunA2(opt, f1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a2) != 5 || a2[0].TreeDepth < a2[len(a2)-1].TreeDepth {
		t.Errorf("A2 %+v", a2)
	}
	a3, err := experiments.RunA3(opt)
	if err != nil {
		t.Fatal(err)
	}
	if a3.MPELogExists || !a3.NativeLogExists {
		t.Errorf("A3 %+v", a3)
	}
}
