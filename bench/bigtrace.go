package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"

	"repro/bench/gen"
	"repro/internal/analyze"
	"repro/internal/stats"
)

// bigtrace pushes one large generated log through every post-run tool in
// its per-record regime: registration, read-back and first tile, verdict,
// diff against a copy with one planted divergence, and a batch of random
// 1%-span windowed profiles through the index. The runtime layers do
// nothing. The journey is one such pass.
type bigtrace struct {
	base
	seed    int64
	counts  gen.Counts
	planted gen.Divergence
	checked bool
}

func (b *bigtrace) clog() string     { return filepath.Join(b.dir, "big.clog2") }
func (b *bigtrace) planted2() string { return filepath.Join(b.dir, "big-planted.clog2") }
func (b *bigtrace) repo() string     { return filepath.Join(b.dir, "repo") }
func (b *bigtrace) raw() string      { return filepath.Join(b.repo(), "big.clog2") }

func (b *bigtrace) setup(dir string, seed int64) error {
	b.dir, b.seed = dir, seed
	if err := os.Mkdir(b.repo(), 0o755); err != nil {
		return err
	}
	cfg := gen.ForSize(seed, b.sc.bigBytes)
	var err error
	if b.counts, err = gen.WriteFile(b.clog(), cfg); err != nil {
		return err
	}
	_, b.planted, err = gen.WritePlantedFile(b.planted2(), cfg)
	return err
}

func (b *bigtrace) rep(tr *tracer, m *meter) (float64, error) {
	runtime.GC()
	m.start()
	pass := tr.begin(0, "bigtrace.pass")
	timeline, diagnose, err := postRun(tr, pass, b.clog(), b.repo(), "big")
	if err != nil {
		return 0, err
	}

	sp := tr.begin(pass, "analyze.diff")
	var diff *analyze.DiffReport
	diffSecs, err := timed(func() (err error) {
		diff, err = analyze.DiffFiles(b.clog(), b.planted2(), analyze.DiffOptions{})
		return err
	})
	if err != nil {
		return 0, err
	}
	tr.end(sp, 2*b.counts.Bytes, 2*b.counts.Ops)
	b.chk.check(!diff.Identical && len(diff.Divergences) == 1 &&
		diff.First.Rank == b.planted.Rank && diff.First.Op == b.planted.Op,
		"bigtrace: diff found %+v, planted %+v", diff.First, b.planted)

	// The windows are the same in every pass, so passes compare.
	rng := rand.New(rand.NewSource(b.seed))
	span := b.counts.End - b.counts.Start
	sp = tr.begin(pass, "stats.windows")
	var windowSecs float64
	for i := 0; i < b.sc.windows; i++ {
		t0 := b.counts.Start + rng.Float64()*0.99*span
		secs, err := timed(func() error {
			_, indexed, err := stats.ComputeProfileFileWindowed(b.raw(), t0, t0+span/100)
			if err == nil && !indexed {
				err = fmt.Errorf("windowed profile of %s did not use the index", b.raw())
			}
			return err
		})
		if err != nil {
			return 0, err
		}
		windowSecs += secs
		b.smp.add("window_query_ms", secs*1e3)
	}
	tr.end(sp, 0, int64(b.sc.windows))
	b.chk.ok(b.sc.windows)
	tr.end(pass, b.counts.Bytes, b.counts.Records)
	m.stop()

	if !b.checked {
		b.checked = true
		if err := b.checkOnce(rng); err != nil {
			return 0, err
		}
	}
	journey := timeline + diagnose + diffSecs + windowSecs
	b.smp.add("time_to_timeline_s", timeline)
	b.smp.add("diagnose_s", diagnose)
	b.smp.add("diff_s", diffSecs)
	return journey, nil
}

// checkOnce runs the correctness checks that need not be repeated every
// pass: the self-diff is empty, five sampled indexed windows equal the scan
// answer byte for byte, conversion does not depend on the worker count,
// and the converter finds exactly the drawables the generator wrote.
func (b *bigtrace) checkOnce(rng *rand.Rand) error {
	self, err := analyze.DiffFiles(b.clog(), b.clog(), analyze.DiffOptions{})
	if err != nil {
		return err
	}
	b.chk.check(self.Identical, "bigtrace: the log differs from itself")

	span := b.counts.End - b.counts.Start
	for i := 0; i < 5; i++ {
		t0 := b.counts.Start + rng.Float64()*0.99*span
		indexed, _, err := stats.ComputeProfileFileWindowed(b.raw(), t0, t0+span/100)
		if err != nil {
			return err
		}
		fh, err := os.Open(b.raw())
		if err != nil {
			return err
		}
		scanned, err := stats.ComputeProfileWindowed(fh, t0, t0+span/100)
		fh.Close()
		if err != nil {
			return err
		}
		x, _ := indexed.JSON()
		y, _ := scanned.JSON()
		b.chk.check(bytes.Equal(x, y), "bigtrace: indexed window [%g,%g] differs from the scan", t0, t0+span/100)
	}

	if err := checkWorkersIdentical(b.chk, b.clog()); err != nil {
		return err
	}
	_, rep, _, err := register(nil, 0, b.clog(), b.repo(), "big")
	if err != nil {
		return err
	}
	b.chk.check(rep.States == b.counts.States && rep.Arrows == b.counts.Arrows && rep.Events == b.counts.Events &&
		rep.NestingErrors == 0 && rep.UnmatchedSends == 0 && rep.UnmatchedRecvs == 0,
		"bigtrace: converter report %+v does not match generated counts %+v", *rep, b.counts)
	return nil
}

func (b *bigtrace) artifacts() (string, string) { return b.clog(), b.planted2() }
