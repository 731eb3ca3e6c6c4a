package core

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/slog2"
)

// Randomised whole-stack soak: random master/worker message schedules with
// random formats, run with full logging, then converted and checked. Every
// value must arrive intact, every log must convert cleanly, and the
// SLOG-2 invariants must hold. This is the "reasonably large and complex
// Pilot application" robustness claim turned into a property.
func TestRandomProgramsEndToEnd(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRandomProgram(t, seed)
		})
	}
}

func runRandomProgram(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	workers := rng.Intn(5) + 1
	rounds := rng.Intn(6) + 1

	cfg, _ := testConfig(t, workers+1, "j")
	r := mustRuntime(t, cfg)

	type job struct {
		kind int // 0: %d scalar, 1: %*lf array, 2: %^c bytes, 3: %s string
		n    int
	}
	schedule := make([][]job, workers)
	for w := range schedule {
		for k := 0; k < rounds; k++ {
			schedule[w] = append(schedule[w], job{kind: rng.Intn(4), n: rng.Intn(40) + 1})
		}
	}

	toW := make([]*Channel, workers)
	fromW := make([]*Channel, workers)
	// Workers echo back a digest of everything received.
	worker := func(self *Self, index int, arg any) int {
		var digest float64
		for _, j := range schedule[index] {
			switch j.kind {
			case 0:
				var v int
				if err := toW[index].Read("%d", &v); err != nil {
					t.Errorf("worker %d: %v", index, err)
					return 1
				}
				digest += float64(v)
			case 1:
				buf := make([]float64, j.n)
				if err := toW[index].Read("%*lf", j.n, buf); err != nil {
					t.Errorf("worker %d: %v", index, err)
					return 1
				}
				for _, v := range buf {
					digest += v
				}
			case 2:
				var b []byte
				if err := toW[index].Read("%^c", &b); err != nil {
					t.Errorf("worker %d: %v", index, err)
					return 1
				}
				for _, v := range b {
					digest += float64(v)
				}
			case 3:
				var s string
				if err := toW[index].Read("%s", &s); err != nil {
					t.Errorf("worker %d: %v", index, err)
					return 1
				}
				digest += float64(len(s))
			}
		}
		if err := fromW[index].Write("%lf", digest); err != nil {
			t.Errorf("worker %d: %v", index, err)
			return 1
		}
		return 0
	}
	for i := 0; i < workers; i++ {
		p, err := r.CreateProcess(worker, i, nil)
		if err != nil {
			t.Fatal(err)
		}
		if toW[i], err = r.CreateChannel(r.MainProc(), p); err != nil {
			t.Fatal(err)
		}
		if fromW[i], err = r.CreateChannel(p, r.MainProc()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}

	// Interleave sends across workers in random order, tracking expected
	// digests.
	expect := make([]float64, workers)
	type pending struct{ w, k int }
	var order []pending
	for w := range schedule {
		for k := range schedule[w] {
			order = append(order, pending{w, k})
		}
	}
	// Shuffle but keep per-worker order (stable partition by random keys).
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	next := make([]int, workers)
	sent := 0
	for sent < len(order) {
		for _, p := range order {
			if next[p.w] != p.k {
				continue
			}
			j := schedule[p.w][p.k]
			switch j.kind {
			case 0:
				v := rng.Intn(1000)
				if err := toW[p.w].Write("%d", v); err != nil {
					t.Fatal(err)
				}
				expect[p.w] += float64(v)
			case 1:
				buf := make([]float64, j.n)
				for i := range buf {
					buf[i] = rng.Float64() * 10
					expect[p.w] += buf[i]
				}
				if err := toW[p.w].Write("%*lf", j.n, buf); err != nil {
					t.Fatal(err)
				}
			case 2:
				b := make([]byte, j.n)
				for i := range b {
					b[i] = byte(rng.Intn(256))
					expect[p.w] += float64(b[i])
				}
				if err := toW[p.w].Write("%^c", b); err != nil {
					t.Fatal(err)
				}
			case 3:
				s := string(make([]byte, j.n))
				if err := toW[p.w].Write("%s", s); err != nil {
					t.Fatal(err)
				}
				expect[p.w] += float64(j.n)
			}
			next[p.w]++
			sent++
		}
	}

	for w := 0; w < workers; w++ {
		var digest float64
		if err := fromW[w].Read("%lf", &digest); err != nil {
			t.Fatal(err)
		}
		diff := digest - expect[w]
		if diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("worker %d digest %v, want %v", w, digest, expect[w])
		}
	}
	if err := r.StopMain(0); err != nil {
		t.Fatal(err)
	}

	// The full pipeline on the random program's log.
	raw, err := os.Open(cfg.JumpshotPath)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	sf, rep, err := slog2.ConvertReader(raw, slog2.ConvertOptions{FrameCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NestingErrors+rep.UnmatchedSends+rep.UnmatchedRecvs != 0 {
		t.Fatalf("seed %d: conversion problems %+v\n%v", seed, rep, rep.Warnings)
	}
	if err := sf.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every wire message produced exactly one arrow.
	wantArrows := 0
	for w := range schedule {
		wantArrows += len(schedule[w]) + 1 // + the digest reply
	}
	if rep.Arrows != wantArrows {
		t.Fatalf("seed %d: %d arrows, want %d", seed, rep.Arrows, wantArrows)
	}
}
