package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/slog2"
	"repro/vis"
)

// A1Result reports the arrow-spread ablation (Section III.C): without the
// usleep workaround, collective fan-outs under a coarse clock superimpose
// drawables and the converter raises "Equal Drawables"; 1 ms of spread
// per arrow eliminates the warning at negligible runtime cost.
type A1Result struct {
	EqualDrawablesNoSpread int
	EqualDrawablesSpread   int
	RuntimeNoSpread        time.Duration
	RuntimeSpread          time.Duration
}

// RunA1 performs the ablation: a broadcast/gather round over 6 workers
// with 1 ms clock resolution, spread off versus on.
func RunA1(opt Options) (*A1Result, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	run := func(spread time.Duration, clogName string) (int, time.Duration, error) {
		const workers = 6
		clogPath := filepath.Join(opt.OutDir, clogName)
		base := clock.NewReal()
		clocks := make([]clock.Source, workers+1)
		for i := range clocks {
			// 100 µs resolution: coarse like an old MPI_Wtime, but finer
			// than the 1 ms spread so the workaround can take effect.
			clocks[i] = clock.NewMonotonic(clock.NewSkewed(base, 0, 0, 1e-4))
		}
		cfg := core.Config{
			NumProcs:     workers + 1,
			Services:     "j",
			CheckLevel:   3,
			JumpshotPath: clogPath,
			ArrowSpread:  spread,
			Clocks:       clocks,
		}
		r, err := core.NewRuntime(cfg)
		if err != nil {
			return 0, 0, err
		}
		to := make([]*core.Channel, workers)
		from := make([]*core.Channel, workers)
		worker := func(self *core.Self, index int, arg any) int {
			var rounds int
			if err := to[index].Read("%d", &rounds); err != nil {
				return 1
			}
			for k := 0; k < rounds; k++ {
				var v int
				if err := to[index].Read("%d", &v); err != nil {
					return 1
				}
				if err := from[index].Write("%*d", 1, []int{v * 2}); err != nil {
					return 1
				}
			}
			return 0
		}
		for i := 0; i < workers; i++ {
			p, err := r.CreateProcess(worker, i, nil)
			if err != nil {
				return 0, 0, err
			}
			if to[i], err = r.CreateChannel(r.MainProc(), p); err != nil {
				return 0, 0, err
			}
			if from[i], err = r.CreateChannel(p, r.MainProc()); err != nil {
				return 0, 0, err
			}
		}
		bcast, err := r.CreateBundle(core.UsageBroadcast, to...)
		if err != nil {
			return 0, 0, err
		}
		gather, err := r.CreateBundle(core.UsageGather, from...)
		if err != nil {
			return 0, 0, err
		}
		if _, err := r.StartAll(); err != nil {
			return 0, 0, err
		}
		start := time.Now()
		const rounds = 5
		if err := bcast.Broadcast("%d", rounds); err != nil {
			return 0, 0, err
		}
		buf := make([]int, workers)
		for k := 0; k < rounds; k++ {
			if err := bcast.Broadcast("%d", k); err != nil {
				return 0, 0, err
			}
			if err := gather.Gather("%*d", workers, buf); err != nil {
				return 0, 0, err
			}
		}
		if err := r.StopMain(0); err != nil {
			return 0, 0, err
		}
		elapsed := time.Since(start) - r.WrapUpTime()
		_, rep, err := vis.ConvertFile(clogPath, opt.convertOpts(0))
		if err != nil {
			return 0, 0, err
		}
		return rep.EqualDrawables, elapsed, nil
	}

	out := &A1Result{}
	if out.EqualDrawablesNoSpread, out.RuntimeNoSpread, err = run(-1, "a1-nospread.clog2"); err != nil {
		return nil, err
	}
	if out.EqualDrawablesSpread, out.RuntimeSpread, err = run(core.DefaultArrowSpread, "a1-spread.clog2"); err != nil {
		return nil, err
	}
	opt.logf("A1 equal-drawables: no-spread=%d spread=%d; runtime %v vs %v",
		out.EqualDrawablesNoSpread, out.EqualDrawablesSpread,
		out.RuntimeNoSpread, out.RuntimeSpread)
	return out, nil
}

// A2Row is one frame-size cell of the conversion ablation.
type A2Row struct {
	FrameCapacity int
	TreeDepth     int
	// MaxFrameDrawables bounds how much a viewer loads per frame — the
	// "amount of data initially displayed" the paper attributes to the
	// frame-size parameter.
	MaxFrameDrawables int
	// QueryMicros is the time to fetch a 10% viewport's states, arrows
	// and events, as the viewers do.
	QueryMicros float64
}

// RunA2 converts one thumbnail log at several frame capacities and
// reports how the parameter shapes the tree.
func RunA2(opt Options, f1 *F1Result) ([]A2Row, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	if f1 == nil {
		if f1, err = RunF1(opt); err != nil {
			return nil, err
		}
	}
	var rows []A2Row
	for _, capacity := range []int{16, 64, 256, 1024, 4096} {
		f, _, err := vis.ConvertFile(f1.CLOGPath, opt.convertOpts(capacity))
		if err != nil {
			return nil, err
		}
		maxDrawables := 0
		f.Walk(func(fr *slog2.Frame) {
			if n := len(fr.States) + len(fr.Arrows) + len(fr.Events); n > maxDrawables {
				maxDrawables = n
			}
		})
		span := f.End - f.Start
		t0 := f.Start + span*0.45
		t1 := f.Start + span*0.55
		const reps = 50
		start := time.Now()
		for i := 0; i < reps; i++ {
			f.States(t0, t1)
			f.Arrows(t0, t1)
			f.Events(t0, t1)
		}
		rows = append(rows, A2Row{
			FrameCapacity:     capacity,
			TreeDepth:         f.Depth(),
			MaxFrameDrawables: maxDrawables,
			QueryMicros:       float64(time.Since(start).Microseconds()) / reps,
		})
		opt.logf("A2 capacity=%4d depth=%2d max-frame=%5d query=%.1fus",
			capacity, f.Depth(), maxDrawables, rows[len(rows)-1].QueryMicros)
	}
	return rows, nil
}

// A3Result reports the abort experiment (Section III.B): PI_Abort loses
// the MPE log, while the native log — streamed to disk entry by entry —
// survives. The RobustLog fields cover the paper's future work, which
// this reproduction implements: with spilling enabled the visual log is
// salvaged and stays usable.
type A3Result struct {
	MPELogExists    bool // must be false (faithful mode)
	NativeLogExists bool // must be true
	NativeLogBytes  int
	// SalvagedLogUsable reports that, with Config.RobustLog, the same
	// aborting program leaves a convertible CLOG-2 behind.
	SalvagedLogUsable bool
	SalvagedStates    int
}

// runA3Program executes the aborting program once and returns the
// runtime error from StopMain (which must be non-nil).
func runA3Program(clogPath, nativePath string, robust bool) error {
	cfg := core.Config{
		NumProcs:     4,
		Services:     "cj",
		CheckLevel:   3,
		JumpshotPath: clogPath,
		NativePath:   nativePath,
		RobustLog:    robust,
		Stderr:       discard{},
	}
	r, err := core.NewRuntime(cfg)
	if err != nil {
		return err
	}
	var ch *core.Channel
	p, err := r.CreateProcess(func(self *core.Self, index int, arg any) int {
		var v int
		if err := ch.Read("%d", &v); err != nil {
			return 1
		}
		self.Log("about to detect a fatal problem")
		time.Sleep(20 * time.Millisecond) // let the log line reach the service process
		self.Abort(7, "fatal problem detected by one process")
		return 1
	}, 0, nil)
	if err != nil {
		return err
	}
	if ch, err = r.CreateChannel(r.MainProc(), p); err != nil {
		return err
	}
	if _, err := r.StartAll(); err != nil {
		return err
	}
	if err := ch.Write("%d", 1); err != nil {
		return err
	}
	if err := r.StopMain(0); err == nil {
		return fmt.Errorf("a3: aborted run finished cleanly")
	}
	return nil
}

// RunA3 runs a program that aborts mid-flight with both logs enabled,
// first faithfully (log lost), then with RobustLog (log salvaged).
func RunA3(opt Options) (*A3Result, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	clogPath := filepath.Join(opt.OutDir, "a3.clog2")
	nativePath := filepath.Join(opt.OutDir, "a3.native.log")
	os.Remove(clogPath)
	os.Remove(nativePath)
	if err := runA3Program(clogPath, nativePath, false); err != nil {
		return nil, err
	}
	out := &A3Result{}
	if _, err := os.Stat(clogPath); err == nil {
		out.MPELogExists = true
	}
	if st, err := os.Stat(nativePath); err == nil {
		out.NativeLogExists = true
		out.NativeLogBytes = int(st.Size())
	}

	// Future work, implemented: same program, RobustLog on.
	robustPath := filepath.Join(opt.OutDir, "a3-robust.clog2")
	os.Remove(robustPath)
	if err := runA3Program(robustPath, nativePath+".robust", true); err != nil {
		return nil, err
	}
	if f, _, err := vis.ConvertFile(robustPath, opt.convertOpts(0)); err == nil {
		out.SalvagedLogUsable = true
		s, _, _ := f.All()
		out.SalvagedStates = len(s)
	}
	opt.logf("A3 mpe-log-exists=%v (paper: lost) native-log-exists=%v (%d bytes, survives); robust-log salvaged=%v (%d states)",
		out.MPELogExists, out.NativeLogExists, out.NativeLogBytes,
		out.SalvagedLogUsable, out.SalvagedStates)
	return out, nil
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
