package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/idx"
)

// pingpong is the closed-loop runtime workload: PI_MAIN and one worker
// bounce a "%d" back and forth, four Pilot calls per round trip, once
// without services and once with -pisvc=j per repetition. Nearly all of
// its time is spent in fmtspec, core, mpi and mpe; the post-run tools do
// nothing. The journey is the logged run, wrap-up included: what a user
// who turned logging on waits for.
type pingpong struct {
	base
	first   int   // the first value sent, from the seed
	records int64 // records in the merged log of one logged run
}

func (p *pingpong) clog() string { return filepath.Join(p.dir, "pingpong.clog2") }

func (p *pingpong) setup(dir string, seed int64) error {
	p.dir = dir
	p.first = rand.New(rand.NewSource(seed)).Intn(1 << 20)
	// There are no inputs to build, so set-up is the warm-up: one run each
	// way grows the heap and the record arenas to their working size.
	for _, services := range []string{"", "j"} {
		if _, _, err := p.run(services); err != nil {
			return err
		}
	}
	ix, err := idx.BuildFile(p.clog())
	if err != nil {
		return err
	}
	p.records = ix.TotalRecords
	return nil
}

// run executes one ping-pong program and returns its wall seconds, from
// configuration to the end of StopMain, and the wrap-up share of them.
func (p *pingpong) run(services string) (wall, wrapUp float64, err error) {
	n := p.sc.roundTrips
	start := time.Now()
	r, err := core.NewRuntime(core.Config{
		NumProcs:     2,
		Services:     services,
		CheckLevel:   3,
		JumpshotPath: p.clog(),
	})
	if err != nil {
		return 0, 0, err
	}
	var to, from *core.Channel
	worker, err := r.CreateProcess(func(self *core.Self, index int, arg any) int {
		var v int
		for j := 0; j < n; j++ {
			if err := to.Read("%d", &v); err != nil {
				return 1
			}
			if err := from.Write("%d", v+1); err != nil {
				return 1
			}
		}
		return 0
	}, 0, nil)
	if err != nil {
		return 0, 0, err
	}
	if to, err = r.CreateChannel(r.MainProc(), worker); err != nil {
		return 0, 0, err
	}
	if from, err = r.CreateChannel(worker, r.MainProc()); err != nil {
		return 0, 0, err
	}
	if _, err := r.StartAll(); err != nil {
		return 0, 0, err
	}
	wrong := 0
	for j := 0; j < n; j++ {
		var v int
		if err := to.Write("%d", p.first+j); err != nil {
			return 0, 0, err
		}
		if err := from.Read("%d", &v); err != nil {
			return 0, 0, err
		}
		if v != p.first+j+1 {
			wrong++
		}
	}
	if err := r.StopMain(0); err != nil {
		return 0, 0, err
	}
	wall = since(start)
	p.chk.ok(4*n - wrong)
	for ; wrong > 0; wrong-- {
		p.chk.check(false, "pingpong: a round trip returned the wrong value")
	}
	return wall, r.WrapUpTime().Seconds(), nil
}

func (p *pingpong) rep(tr *tracer, m *meter) (float64, error) {
	calls := float64(4 * p.sc.roundTrips)
	runtime.GC()
	wall, _, err := p.run("")
	if err != nil {
		return 0, fmt.Errorf("pingpong unlogged: %w", err)
	}
	p.smp.add("unlogged_call_us", wall/calls*1e6)

	runtime.GC()
	m.start()
	sp := tr.begin(0, "core.logged_run")
	wall, wrapUp, err := p.run("j")
	m.stop()
	if err != nil {
		return 0, fmt.Errorf("pingpong logged: %w", err)
	}
	tr.add(sp, "mpe.finish", tr.now()-wrapUp, tr.now())
	tr.end(sp, fileSize(p.clog()), p.records)
	p.smp.add("logged_call_us", (wall-wrapUp)/calls*1e6)
	p.smp.add("wrapup_ms_per_mrec", wrapUp*1e3/(float64(p.records)/1e6))
	return wall, nil
}

func (p *pingpong) artifacts() (string, string) { return p.clog(), p.clog() }
