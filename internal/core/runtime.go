package core

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/colors"
	"repro/internal/deadlock"
	"repro/internal/mpe"
	"repro/internal/mpi"
	"repro/internal/stats"
)

// Runtime phases: Pilot programs have a configuration phase (PI_Configure
// to PI_StartAll) and an execution phase (PI_StartAll to PI_StopMain).
const (
	phaseConfig = iota
	phaseRunning
	phaseStopped
)

// AbortCodeDeadlock is the abort code used when the detector fires.
const AbortCodeDeadlock = 134

// WorkFunc is a Pilot process body: Pilot's int f(int index, void *arg),
// with a Self handle supplying the process-context operations (PI_Log,
// PI_StartTime, PI_Abort...).
type WorkFunc func(self *Self, index int, arg any) int

// Runtime is one configured Pilot program: the Go equivalent of the
// global state PI_Configure sets up.
type Runtime struct {
	cfg     Config
	world   *mpi.World
	metrics *stats.Collector // nil unless Config.Metrics

	mu       sync.Mutex
	phase    int
	procs    []*Process
	channels []*Channel
	bundles  []*Bundle

	svcRank int // -1 when no service process is reserved
	jlog    bool

	mpe    *mpe.Group
	states map[string]mpe.StateID
	events map[string]mpe.EventID
	// The IDs every message logs under, resolved from the maps once.
	stWrite, stRead        mpe.StateID
	evDeparture, evArrival mpe.EventID

	formatCache sync.Map // format string -> []fmtspec.Spec

	wgWork sync.WaitGroup // workers done with their work functions
	wgAll  sync.WaitGroup // workers + service fully finished

	mainSelf *Self

	wrapUp     time.Duration
	deadlockMu sync.Mutex
	deadlockRp *deadlock.Report
}

// Process is a created Pilot process (PI_PROCESS*).
type Process struct {
	r     *Runtime
	rank  int
	fn    WorkFunc
	index int
	arg   any

	nameMu sync.Mutex
	name   string
}

// Rank returns the process's MPI rank (0 = PI_MAIN).
func (p *Process) Rank() int { return p.rank }

// Name returns the process's display name (default "P<rank>", "PI_MAIN"
// for rank 0).
func (p *Process) Name() string {
	p.nameMu.Lock()
	defer p.nameMu.Unlock()
	return p.name
}

// SetName assigns a meaningful display name, "precisely for the purpose of
// logging and debugging" (PI_SetName).
func (p *Process) SetName(name string) {
	p.nameMu.Lock()
	p.name = name
	p.nameMu.Unlock()
}

// SetArg replaces the opaque argument passed to the work function. It is
// only meaningful during the configuration phase, where it lets a process
// receive a channel or bundle created after the process itself (C Pilot
// programs use globals; Go programs often prefer explicit wiring).
func (p *Process) SetArg(arg any) { p.arg = arg }

// NewRuntime is PI_Configure: it validates cfg, builds the MPI world,
// reserves the service rank when needed, prepares the MPE logging state,
// and enters the configuration phase.
func NewRuntime(cfg Config) (*Runtime, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	r := &Runtime{cfg: cfg, svcRank: -1}
	if cfg.needsSvcRank() {
		if cfg.NumProcs < 2 {
			return nil, errorf("PI_Configure", "", "services %q need a dedicated process, but NumProcs is %d", cfg.Services, cfg.NumProcs)
		}
		r.svcRank = cfg.NumProcs - 1
	}
	var faults *mpi.FaultPlan
	if cfg.Faults != nil {
		// Private copy: the runtime rewrites Mode and OnFault, and the
		// caller may reuse its plan for a replay.
		p := *cfg.Faults
		p.Rules = append([]mpi.FaultRule(nil), cfg.Faults.Rules...)
		if p.Mode == mpi.CrashAuto {
			if cfg.HasService(SvcDeadlock) {
				// Let the crashed rank drop out quietly; the detector sees
				// its exit notice and diagnoses the stranded peers.
				p.Mode = mpi.CrashStop
			} else {
				// Without a detector a stopped rank would strand its peers
				// in a silent hang, so tear the whole world down instead.
				p.Mode = mpi.CrashAbort
			}
		}
		userCB := p.OnFault
		p.OnFault = func(ev mpi.FaultEvent) {
			// Runs on the faulting rank's own goroutine, so the per-rank
			// MPE logger is safe to use directly. Event truncates the
			// cargo to clog2.MaxCargo on the write side.
			if r.jlog {
				r.logger(ev.Rank).Event(r.events["FaultInjected"], ev.String())
			}
			if r.nativeOn() {
				r.nativeLog(ev.Rank, "FAULT "+ev.String())
			}
			if userCB != nil {
				userCB(ev)
			}
		}
		faults = &p
	}
	var metrics *stats.Collector
	if cfg.Metrics {
		metrics = stats.New(cfg.NumProcs)
		stats.Publish(metrics)
	}
	r.metrics = metrics
	r.world, err = mpi.Start(cfg.NumProcs, mpi.Options{
		Clocks:       cfg.Clocks,
		Faults:       faults,
		Metrics:      metrics,
		Transport:    cfg.Transport,
		SpawnCommand: cfg.SpawnCommand,
		SpawnEnv:     cfg.SpawnEnv,
	})
	if err != nil {
		return nil, errorf("PI_Configure", "", "starting MPI transport: %v", err)
	}

	r.jlog = cfg.HasService(SvcJumpshot)
	if r.jlog && cfg.NoMPE {
		// The paper's graceful degradation: "If the user asks for an MPE
		// log (-pisvc=j) but without MPE being built in their Pilot
		// installation, a warning will be printed."
		r.warnf("pilot: warning: logging for Jumpshot is not available (Pilot built without MPE)")
		r.jlog = false
	}
	r.mpe = mpe.NewGroup(r.world, r.jlog)
	if r.jlog && cfg.RobustLog {
		r.mpe.EnableSpill(cfg.JumpshotPath)
	}
	r.states = map[string]mpe.StateID{}
	r.events = map[string]mpe.EventID{}
	stateNames := make([]string, 0, len(colors.StateColors))
	for name := range colors.StateColors {
		stateNames = append(stateNames, name)
	}
	sort.Strings(stateNames) // deterministic category order across runs
	for _, name := range stateNames {
		r.states[name] = r.mpe.DescribeState(name, colors.StateColor(name).Name)
	}
	for _, name := range []string{"MsgArrival", "MsgDeparture", "PI_Log",
		"PI_TrySelect", "PI_ChannelHasData", "PI_StartTime", "PI_EndTime"} {
		r.events[name] = r.mpe.DescribeEvent(name, colors.EventColor.Name)
	}
	// Faults and deadlock reports get their own bubble colours so failure
	// modes are visible at a glance in the converted timeline.
	r.events["FaultInjected"] = r.mpe.DescribeEvent("FaultInjected", colors.FaultEventColor.Name)
	r.events["Deadlock"] = r.mpe.DescribeEvent("Deadlock", colors.DeadlockEventColor.Name)
	r.stWrite, r.stRead = r.states["PI_Write"], r.states["PI_Read"]
	r.evDeparture, r.evArrival = r.events["MsgDeparture"], r.events["MsgArrival"]

	if r.jlog && cfg.RobustLog && r.world.Local(0) {
		// Definitions are rank 0's to spill; in a multi-process world a
		// non-zero rank writing them would collide with the orchestrator
		// over the same defs file.
		if err := r.mpe.SpillDefs(); err != nil {
			r.warnf("pilot: warning: cannot write spill definitions: %v", err)
		}
	}

	main := &Process{r: r, rank: 0, name: "PI_MAIN"}
	r.procs = []*Process{main}

	// The Configuration Phase is itself displayed "as a bisque coloured
	// state rectangle" from PI_Configure to PI_StartAll. Rank 0's records
	// belong to the process hosting rank 0; a joined rank logging them
	// would duplicate them (and cross-write rank 0's spill file).
	if r.world.Local(0) {
		r.logger(0).StateStart(r.states["PI_Configure"], "phase: configuration")
	}
	return r, nil
}

func (r *Runtime) warnf(format string, args ...any) {
	w := r.cfg.Stderr
	if w == nil {
		w = os.Stderr
	}
	fmt.Fprintf(w, format+"\n", args...)
}

// Config returns the (normalised) configuration in effect.
func (r *Runtime) Config() Config { return r.cfg }

// World exposes the MPI substrate, chiefly for tests and benches.
func (r *Runtime) World() *mpi.World { return r.world }

// Metrics returns the live stats collector (nil unless Config.Metrics).
func (r *Runtime) Metrics() *stats.Collector { return r.metrics }

// MainProc returns the PI_MAIN process handle.
func (r *Runtime) MainProc() *Process { return r.procs[0] }

// AvailableProcs returns how many worker processes can still be created:
// the world minus PI_MAIN minus the service rank, as in Pilot where native
// logging "does consume an additional MPI rank ... since one worker is
// displaced".
func (r *Runtime) AvailableProcs() int {
	n := r.cfg.NumProcs - 1
	if r.svcRank >= 0 {
		n--
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return n - (len(r.procs) - 1)
}

// Aborted reports whether the program was aborted (PI_Abort or deadlock).
func (r *Runtime) Aborted() bool { return r.world.Aborted() }

// Traffic returns the program's total message traffic (count and bytes of
// Pilot data messages; service and logging traffic excluded).
func (r *Runtime) Traffic() mpi.Traffic { return r.world.TotalTraffic() }

// WrapUpTime returns how long the MPE log collection, merge and write took
// at StopMain — the wrap-up cost measured in Section III.E.
func (r *Runtime) WrapUpTime() time.Duration { return r.wrapUp }

// DeadlockReport returns the detector's report, or nil.
func (r *Runtime) DeadlockReport() *deadlock.Report {
	r.deadlockMu.Lock()
	defer r.deadlockMu.Unlock()
	return r.deadlockRp
}

func (r *Runtime) setDeadlockReport(rep *deadlock.Report) {
	r.deadlockMu.Lock()
	r.deadlockRp = rep
	r.deadlockMu.Unlock()
}

func (r *Runtime) logger(rank int) *mpe.Logger { return r.mpe.Logger(rank) }

// requirePhase fails with a Pilot-style diagnostic when called in the
// wrong phase — the most common API abuse, caught at every check level.
func (r *Runtime) requirePhase(op, loc string, want int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.phase != want {
		names := []string{"configuration", "execution", "stopped"}
		return errorf(op, loc, "called in %s phase; allowed only in %s phase", names[r.phase], names[want])
	}
	return nil
}

// CreateProcess is PI_CreateProcess: it registers a work function to run
// as the next free rank. Only legal in the configuration phase.
//
//go:noinline
func (r *Runtime) CreateProcess(fn WorkFunc, index int, arg any) (*Process, error) {
	loc := callerLoc(1)
	if err := r.requirePhase("PI_CreateProcess", loc, phaseConfig); err != nil {
		return nil, err
	}
	if fn == nil {
		return nil, errorf("PI_CreateProcess", loc, "nil work function")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rank := len(r.procs)
	limit := r.cfg.NumProcs
	if r.svcRank >= 0 {
		limit--
	}
	if rank >= limit {
		return nil, errorf("PI_CreateProcess", loc,
			"no free process: %d of %d ranks used (1 for PI_MAIN%s); raise NumProcs",
			rank, r.cfg.NumProcs, svcNote(r.svcRank))
	}
	p := &Process{r: r, rank: rank, fn: fn, index: index, arg: arg, name: fmt.Sprintf("P%d", rank)}
	r.procs = append(r.procs, p)
	return p, nil
}

func svcNote(svcRank int) string {
	if svcRank >= 0 {
		return ", 1 for the service process"
	}
	return ""
}

// StartAll is PI_StartAll: every created process begins executing its work
// function on its own rank, the service process starts if configured, and
// the caller continues as PI_MAIN. It returns PI_MAIN's Self.
//
//go:noinline
func (r *Runtime) StartAll() (*Self, error) {
	loc := callerLoc(1)
	if err := r.requirePhase("PI_StartAll", loc, phaseConfig); err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.phase = phaseRunning
	procs := append([]*Process(nil), r.procs...)
	// The channel table is final now; size the per-channel metric cells
	// (channel IDs are 1-based wire tags).
	r.metrics.SetChannels(len(r.channels))
	r.mu.Unlock()

	if local := r.world.LocalRank(); local > 0 {
		// This process was spawned to host one non-zero rank: run that
		// rank's role to completion and exit, as a real MPI rank would.
		// Code after PI_StartAll only ever executes in the rank 0 process.
		r.runLocalRank(local, procs)
		panic("unreachable") // runLocalRank exits the process
	}

	r.logger(0).StateEnd(r.states["PI_Configure"], "")

	if r.svcRank >= 0 && r.world.Local(r.svcRank) {
		r.wgAll.Add(1)
		go r.svcMain()
	}
	for _, p := range procs[1:] {
		if !r.world.Local(p.rank) {
			continue // runs in its own process
		}
		r.wgWork.Add(1)
		r.wgAll.Add(1)
		go r.workerMain(p)
	}

	r.mainSelf = &Self{r: r, proc: procs[0]}
	// The Execution Phase: "PI_StartAll and PI_StopMain bracket a clear
	// execution time period ... represented by a gray coloured state
	// rectangle, named as Compute."
	r.logger(0).StateStart(r.states["Compute"], "proc: PI_MAIN")
	return r.mainSelf, nil
}

// runLocalRank runs a spawned process's one rank synchronously — the
// worker whose rank this process hosts, or the service process — then
// says goodbye to the transport and exits with the world's abort code.
// It never returns: a spawned rank process has no PI_MAIN to continue
// as. Ranks beyond the created processes simply exit, mirroring the
// in-process world where no goroutine exists for them.
func (r *Runtime) runLocalRank(local int, procs []*Process) {
	switch {
	case local == r.svcRank:
		r.wgAll.Add(1)
		r.svcMain()
	case local < len(procs):
		p := procs[local]
		r.wgWork.Add(1)
		r.wgAll.Add(1)
		r.workerMain(p)
	}
	if err := r.world.Shutdown(); err != nil {
		r.warnf("pilot: warning: rank %d transport shutdown: %v", local, err)
	}
	code := 0
	if r.world.Aborted() {
		code = r.world.AbortCode()
	}
	os.Exit(code)
}

// workerMain is the goroutine wrapper for one Pilot process.
func (r *Runtime) workerMain(p *Process) {
	defer r.wgAll.Done()
	self := &Self{r: r, proc: p}
	log := r.logger(p.rank)
	if log.Enabled() {
		var cb mpe.Cargo
		log.StateStartBytes(r.states["Compute"],
			cb.KV("proc", p.Name()).Str(" idx: ").Int(p.index).Bytes())
	}

	func() {
		defer func() {
			if rec := recover(); rec != nil {
				r.warnf("pilot: process %s (rank %d) panicked: %v", p.Name(), p.rank, rec)
				r.world.Rank(p.rank).Abort(1)
			}
		}()
		p.fn(self, p.index, p.arg)
	}()

	log.StateEnd(r.states["Compute"], "")
	r.svcExited(p.rank)
	r.wgWork.Done()
	if r.jlog {
		// Participate in the collective MPE wrap-up; errors surface at
		// rank 0 (an aborted world loses the log there too).
		_ = log.Finish(nil)
	}
}

// StopMain is PI_StopMain: PI_MAIN calls it after its own work; it waits
// for every work function to return, shuts down the service process,
// performs the MPE log wrap-up (clock sync, collection, merge, single
// CLOG-2 file — the termination cost measured in the paper), and ends the
// execution phase.
//
//go:noinline
func (r *Runtime) StopMain(status int) error {
	loc := callerLoc(1)
	if err := r.requirePhase("PI_StopMain", loc, phaseRunning); err != nil {
		return err
	}
	if log := r.logger(0); log.Enabled() {
		var cb mpe.Cargo
		log.StateEndBytes(r.states["Compute"], cb.Str("status: ").Int(status).Bytes())
	}

	r.wgWork.Wait()

	if r.svcRank >= 0 && !r.world.Aborted() {
		_ = r.svcSend(svcMsgQuit, 0, nil)
	}

	var finishErr error
	if r.jlog {
		if r.world.Aborted() {
			if !r.cfg.RobustLog {
				// Faithful to the paper: "when MPI_Abort is called, there
				// is no way to avoid the loss of the MPE log."
				r.warnf("pilot: warning: MPE log lost because the program aborted")
			}
		} else {
			t0 := time.Now()
			finishErr = r.logger(0).FinishFile(r.cfg.JumpshotPath)
			r.wrapUp = time.Since(t0)
		}
	}
	r.wgAll.Wait()

	// Release the transport before any salvage: in a multi-process world
	// this reaps the rank processes (so their spill files are closed and
	// final) and is the natural join point when no log merge did it.
	if err := r.world.Shutdown(); err != nil && !r.world.Aborted() {
		r.warnf("pilot: warning: transport shutdown: %v", err)
	}

	if r.jlog && r.cfg.RobustLog && r.world.Aborted() {
		// The paper's future work: finalize the log in all cases, from
		// the per-rank spill files.
		if err := r.salvageLog(); err != nil {
			r.warnf("pilot: warning: could not salvage MPE log: %v", err)
		} else {
			r.warnf("pilot: MPE log salvaged from spill files -> %s", r.cfg.JumpshotPath)
		}
	}

	r.mu.Lock()
	r.phase = phaseStopped
	r.mu.Unlock()

	if rep := r.DeadlockReport(); rep != nil {
		return errorf("PI_StopMain", loc, "deadlock detected:\n%s", rep.String())
	}
	if r.world.Aborted() {
		code := r.world.AbortCode()
		if code == AbortCodeDeadlock {
			// Multi-process world: the report lives in the service rank's
			// process, which printed the diagnosis to its own stderr.
			return errorf("PI_StopMain", loc, "deadlock detected (abort code %d); diagnosis printed by the service process", code)
		}
		return errorf("PI_StopMain", loc, "program aborted with code %d", code)
	}
	if finishErr != nil {
		return errorf("PI_StopMain", loc, "writing Jumpshot log: %v", finishErr)
	}
	return nil
}

// salvageLog merges the spill fragments of an aborted run into the
// regular Jumpshot log path and removes the fragments on success. Any
// damage the salvage had to route around — lost segments, quarantined
// bytes, a synthesized defs table — is surfaced as warnings, because an
// abort is exactly when the user needs to know how trustworthy the
// recovered timeline is.
func (r *Runtime) salvageLog() error {
	out, err := os.Create(r.cfg.JumpshotPath)
	if err != nil {
		return err
	}
	rep, err := mpe.SalvageWithReport(r.cfg.JumpshotPath, out)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(r.cfg.JumpshotPath)
		return err
	}
	if rep.RanksRecovered == 0 {
		os.Remove(r.cfg.JumpshotPath)
		return fmt.Errorf("no records recovered from any rank fragment")
	}
	if !rep.Clean() {
		r.warnf("pilot: warning: salvage incomplete: %s", rep.Summary())
		for _, w := range rep.Warnings {
			r.warnf("pilot: warning: salvage: %s", w)
		}
	}
	mpe.RemoveSpills(r.cfg.JumpshotPath)
	return nil
}
