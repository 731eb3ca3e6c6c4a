// Deterministic fault injection for the simulated MPI world.
//
// A FaultPlan, installed via Options.Faults, lets tests and demos provoke
// the failure modes a message-passing runtime is really about: delayed
// messages, a rank stalling or crashing at its Nth operation, per-rank
// clocks jumping mid-run, and eager sends forced into rendezvous. Every
// decision is drawn from a per-rank splitmix64 stream seeded from
// (Plan.Seed, rank), and probabilistic rules are evaluated in rule order
// once per counted operation — so a rank's fault decisions are a pure
// function of (seed, rules, that rank's own operation sequence), and any
// failing run replays exactly regardless of goroutine scheduling.
//
// Only user and collective context operations (Send, Recv, Barrier in
// CtxUser/CtxColl) are counted and faulted. Service traffic (deadlock
// detector) and the log-collection merge are never perturbed: the
// observers must stay reliable so an injected fault ends in a diagnosis,
// not in a corrupted diagnosis pipeline.
package mpi

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
)

// ErrRankCrashed is returned from every user/collective operation of a
// rank that a FaultPlan has crashed. In CrashStop mode only the crashed
// rank sees it; its peers must be diagnosed by the deadlock detector.
var ErrRankCrashed = errors.New("mpi: rank crashed by fault injection")

// FaultAbortCode is the abort code used when an injected crash tears down
// the whole world (CrashAbort mode, or any crash of rank 0).
const FaultAbortCode = 137

// AnyRank targets a FaultRule at every rank.
const AnyRank = -1

// FaultKind enumerates the injectable faults.
type FaultKind uint8

// The fault kinds.
const (
	// FaultDelay delays delivery of a message: the sender blocks for the
	// drawn duration before the message is enqueued (a slow link).
	FaultDelay FaultKind = iota + 1
	// FaultStall pauses the rank at the start of an operation.
	FaultStall
	// FaultCrash kills the rank at the start of an operation: every
	// subsequent user/collective operation fails with ErrRankCrashed.
	FaultCrash
	// FaultClockJump shifts the rank's wallclock by JumpSec seconds.
	// Negative jumps are clamped monotonic (the clock freezes until real
	// time catches up), as a real clock-step under NTP would be.
	FaultClockJump
	// FaultRendezvous forces an eager send to rendezvous, so the sender
	// blocks until the receiver matches the message.
	FaultRendezvous

	// The wire-level kinds below target the multi-process socket
	// transport's links rather than rank operations: Rank selects the
	// link (the non-hub rank it connects), Op the link-level frame
	// sequence number, and each decision is a pure function of (seed,
	// rule, link, direction, frame seq) — see wirefault.go. They are
	// no-ops on the in-process transport.

	// FaultWireDelay delays one frame's transmission on the wire.
	FaultWireDelay
	// FaultWireCorrupt flips bytes in a frame's body on the wire; the
	// link-layer CRC detects it and the frame is recovered by
	// retransmission.
	FaultWireCorrupt
	// FaultWireDup transmits a frame twice; the receiver's sequence
	// dedup drops the replay.
	FaultWireDup
	// FaultWireDrop closes the connection instead of transmitting the
	// frame (a clean connection kill; the frame stays in the unacked
	// window for retransmission after resume).
	FaultWireDrop
	// FaultWireReset writes a torn prefix of the frame and then closes
	// the connection (a mid-frame connection reset).
	FaultWireReset
	// FaultWireStall pauses the receiver after reading the selected
	// frame, so backpressure builds toward the writer.
	FaultWireStall
)

// wire reports whether the kind targets the socket transport's links.
func (k FaultKind) wire() bool { return k >= FaultWireDelay && k <= FaultWireStall }

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultDelay:
		return "delay"
	case FaultStall:
		return "stall"
	case FaultCrash:
		return "crash"
	case FaultClockJump:
		return "jump"
	case FaultRendezvous:
		return "rendezvous"
	case FaultWireDelay:
		return "wiredelay"
	case FaultWireCorrupt:
		return "wirecorrupt"
	case FaultWireDup:
		return "wiredup"
	case FaultWireDrop:
		return "wiredrop"
	case FaultWireReset:
		return "wirereset"
	case FaultWireStall:
		return "wirestall"
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// CrashMode selects what an injected FaultCrash does to the rest of the
// job.
type CrashMode uint8

// The crash modes.
const (
	// CrashAuto lets the layer above decide; the mpi layer treats it as
	// CrashAbort so a crash can never leave an undiagnosable hang by
	// default. Pilot's runtime switches to CrashStop when the deadlock
	// detector is on, so the crash is *diagnosed* instead of unwound.
	CrashAuto CrashMode = iota
	// CrashStop silently stops the crashed rank; peers keep running (and
	// potentially blocking on it). Rank 0 crashes still abort: as in a
	// real MPI job, losing the rank that drives the program tears the job
	// down.
	CrashStop
	// CrashAbort tears down the whole world (MPI job teardown): every
	// blocked operation on every rank fails with ErrAborted.
	CrashAbort
)

// FaultRule is one injection rule. Rules fire per rank: Op-indexed rules
// fire exactly once, at the rank's Op'th counted operation; probabilistic
// rules (Op == 0) draw once per applicable operation.
type FaultRule struct {
	// Kind selects the fault.
	Kind FaultKind
	// Rank targets one rank, or AnyRank for all.
	Rank int
	// Op fires the rule at the target rank's Op'th counted operation
	// (1-based). 0 means probabilistic: see Prob.
	Op int
	// Prob is the per-operation firing probability for Op == 0 rules.
	Prob float64
	// Delay is the stall duration (FaultStall) or the maximum delivery
	// delay (FaultDelay; the drawn delay is uniform in [Delay/2, Delay]).
	Delay time.Duration
	// JumpSec is the clock shift for FaultClockJump, in seconds.
	JumpSec float64
}

// opGranular reports whether the rule fires at operation granularity
// (any counted op) rather than only on sends.
func (f FaultRule) opGranular() bool {
	return f.Kind == FaultStall || f.Kind == FaultCrash || f.Kind == FaultClockJump
}

func (f FaultRule) appliesTo(rank int) bool {
	return f.Rank == AnyRank || f.Rank == rank
}

// FaultPlan is a deterministic fault-injection schedule for a World.
type FaultPlan struct {
	// Seed feeds the per-rank decision PRNGs. The same (Seed, Rules) on
	// the same program replays the same faults.
	Seed int64
	// Rules are evaluated in order on every counted operation.
	Rules []FaultRule
	// Mode selects crash teardown behaviour (see CrashMode).
	Mode CrashMode
	// OnFault, when non-nil, is called on the faulting rank's goroutine
	// at the moment each fault fires (before any sleep or teardown).
	OnFault func(FaultEvent)
}

func (p *FaultPlan) hasKind(k FaultKind) bool {
	for _, r := range p.Rules {
		if r.Kind == k {
			return true
		}
	}
	return false
}

// FaultEvent records one fired fault.
type FaultEvent struct {
	Kind FaultKind
	// Rank is the faulted rank; Op its counted operation index (1-based)
	// at the moment of firing; Rule the index of the rule that fired.
	Rank, Rule int
	Op         int64
	// Delay is the applied delay/stall; JumpSec the applied clock shift.
	Delay   time.Duration
	JumpSec float64
}

// String renders the event compactly (and deterministically: no
// wallclock), e.g. "crash rank=2 op=40" or "delay rank=1 op=7 d=1.5ms".
func (e FaultEvent) String() string {
	s := fmt.Sprintf("%s rank=%d op=%d", e.Kind, e.Rank, e.Op)
	if e.Delay > 0 {
		s += fmt.Sprintf(" d=%s", e.Delay)
	}
	if e.JumpSec != 0 {
		s += fmt.Sprintf(" sec=%+g", e.JumpSec)
	}
	return s
}

// faultState is the per-world injection state.
type faultState struct {
	plan    FaultPlan
	perRank []*rankFaults

	mu     sync.Mutex
	events []FaultEvent
}

// rankFaults is one rank's decision stream. All fields are guarded by mu;
// operations of a rank normally run on one goroutine, but the lock keeps
// the layer race-clean under any use.
type rankFaults struct {
	mu      sync.Mutex
	rng     uint64
	op      int64
	crashed bool
	fired   []bool // per-rule, for Op-indexed once-only rules
}

func newFaultState(plan FaultPlan, size int) *faultState {
	fs := &faultState{plan: plan, perRank: make([]*rankFaults, size)}
	for i := range fs.perRank {
		// Distinct, seed-derived stream per rank; one warmup scramble so
		// small seeds and ranks do not yield correlated streams.
		st := uint64(plan.Seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
		splitmix(&st)
		fs.perRank[i] = &rankFaults{rng: st, fired: make([]bool, len(plan.Rules))}
	}
	return fs
}

// splitmix advances a splitmix64 state and returns the next value.
func splitmix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unitFrom draws a float64 in [0, 1) from a splitmix64 state.
func unitFrom(state *uint64) float64 {
	return float64(splitmix(state)>>11) / (1 << 53)
}

// unit draws a float64 in [0, 1).
func (rf *rankFaults) unit() float64 { return unitFrom(&rf.rng) }

func (fs *faultState) record(ev FaultEvent) {
	fs.mu.Lock()
	fs.events = append(fs.events, ev)
	fs.mu.Unlock()
	if fs.plan.OnFault != nil {
		fs.plan.OnFault(ev)
	}
}

// recordWire logs a wire-level fault event. Unlike record it never calls
// plan.OnFault: wire faults fire on transport goroutines, not on the
// faulting rank's own goroutine, and OnFault implementations (the
// runtime's MPE fault logger) assume the latter. Wire events still show
// up in FaultEvents for replay assertions.
func (fs *faultState) recordWire(ev FaultEvent) {
	fs.mu.Lock()
	fs.events = append(fs.events, ev)
	fs.mu.Unlock()
}

// FaultEvents returns every fault fired so far, sorted by (rank, op,
// rule) — a scheduling-independent order, so two runs of the same seeded
// plan over the same program yield identical slices.
func (w *World) FaultEvents() []FaultEvent {
	if w.faults == nil {
		return nil
	}
	w.faults.mu.Lock()
	out := append([]FaultEvent(nil), w.faults.events...)
	w.faults.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.Rule < b.Rule
	})
	return out
}

// faulted reports whether ctx operations are subject to injection.
func faultedCtx(ctx int) bool { return ctx == CtxUser || ctx == CtxColl }

// crashedErr is the cheap check used by the non-counted Iprobe: a crashed rank can do nothing in the user world.
func (w *World) crashedErr(id, ctx int) error {
	if w.faults == nil || !faultedCtx(ctx) {
		return nil
	}
	rf := w.faults.perRank[id]
	rf.mu.Lock()
	crashed := rf.crashed
	rf.mu.Unlock()
	if crashed {
		return ErrRankCrashed
	}
	return nil
}

// faultDecision is what one counted operation must apply.
type faultDecision struct {
	crash      bool
	stall      time.Duration
	delay      time.Duration
	jump       float64
	rendezvous bool
	events     []FaultEvent
}

// decide counts one operation on rank id and evaluates the rules.
// isSend enables the message-granular kinds (delay, rendezvous).
func (fs *faultState) decide(id int, isSend bool) (faultDecision, error) {
	rf := fs.perRank[id]
	rf.mu.Lock()
	if rf.crashed {
		rf.mu.Unlock()
		return faultDecision{}, ErrRankCrashed
	}
	rf.op++
	var d faultDecision
	for i, rule := range fs.plan.Rules {
		if rule.Kind.wire() {
			continue // injected by the transport's links, not here
		}
		if !rule.appliesTo(id) {
			continue
		}
		if !rule.opGranular() && !isSend {
			continue
		}
		fire := false
		if rule.Op > 0 {
			fire = int64(rule.Op) == rf.op && !rf.fired[i]
		} else if rule.Prob > 0 {
			// Always consume exactly one draw per applicable op so the
			// stream position is a function of the op sequence alone.
			fire = rf.unit() < rule.Prob
		}
		if !fire {
			continue
		}
		rf.fired[i] = true
		ev := FaultEvent{Kind: rule.Kind, Rank: id, Rule: i, Op: rf.op}
		switch rule.Kind {
		case FaultCrash:
			rf.crashed = true
			d.crash = true
		case FaultStall:
			ev.Delay = rule.Delay
			d.stall += rule.Delay
		case FaultDelay:
			// Uniform in [Delay/2, Delay]: jittered but bounded.
			ev.Delay = rule.Delay/2 + time.Duration(rf.unit()*float64(rule.Delay)/2)
			d.delay += ev.Delay
		case FaultClockJump:
			ev.JumpSec = rule.JumpSec
			d.jump += rule.JumpSec
		case FaultRendezvous:
			d.rendezvous = true
		}
		d.events = append(d.events, ev)
		if d.crash {
			break // nothing after death
		}
	}
	rf.mu.Unlock()
	return d, nil
}

// faultOp applies the fault plan at the start of one counted operation.
// It returns ErrRankCrashed when the rank has (just or previously)
// crashed; the caller surfaces that error from the operation.
func (w *World) faultOp(id, ctx int, isSend bool) (delay time.Duration, rendezvous bool, err error) {
	if w.faults == nil || !faultedCtx(ctx) {
		return 0, false, nil
	}
	d, err := w.faults.decide(id, isSend)
	if err != nil {
		return 0, false, err
	}
	for _, ev := range d.events {
		w.faults.record(ev)
		w.metrics.FaultInjected(id)
	}
	if d.jump != 0 {
		if fc, ok := w.clocks[id].(*faultClock); ok {
			fc.jump(d.jump)
		}
	}
	if d.stall > 0 {
		w.faultSleep(d.stall)
	}
	if d.crash {
		if w.faults.plan.Mode != CrashStop || id == 0 {
			w.abort(FaultAbortCode)
		}
		return 0, false, ErrRankCrashed
	}
	return d.delay, d.rendezvous, nil
}

// faultSleep pauses without outliving the world: an abort cuts the sleep
// short so injected stalls never delay teardown.
func (w *World) faultSleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-w.abortCh:
	}
}

// faultClock wraps a rank's clock so FaultClockJump can shift it mid-run.
// Readings are clamped monotonic, so a negative jump freezes the clock
// until the base catches up instead of running it backwards.
type faultClock struct {
	base clock.Source

	mu     sync.Mutex
	offset float64
	last   float64
}

// Now implements clock.Source.
func (c *faultClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.base.Now() + c.offset
	if t < c.last {
		t = c.last
	}
	c.last = t
	return t
}

func (c *faultClock) jump(d float64) {
	c.mu.Lock()
	c.offset += d
	c.mu.Unlock()
}

// ParseFaultPlan parses the -faults spec grammar:
//
//	plan   := clause (';' clause)*
//	clause := "seed=" int
//	        | "mode=" ("auto" | "stop" | "abort")
//	        | kind [':' param (',' param)*]
//	kind   := "delay" | "stall" | "crash" | "jump" | "rendezvous"
//	        | "wiredelay" | "wirecorrupt" | "wiredup"
//	        | "wiredrop" | "wirereset" | "wirestall"
//	param  := "rank=" (int | '*')   target rank (wire kinds: link)  (default *)
//	        | "op=" int             fire at Nth op (wire kinds: at link
//	                                frame seq N)   (default: probabilistic)
//	        | "prob=" float         per-op probability
//	        | "dur=" duration       delay/stall length (Go syntax: 2ms, 1s)
//	        | "sec=" float          clock jump seconds
//
// The wire* kinds target the socket transport's links (see wirefault.go)
// and are inert on the in-process transport.
//
// Examples:
//
//	seed=42;delay:prob=0.25,dur=2ms;crash:rank=2,op=40;jump:rank=1,op=10,sec=0.5
//	seed=7;wirecorrupt:rank=1,prob=0.01;wiredrop:rank=*,op=20
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	plan := &FaultPlan{}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("mpi: fault spec: bad seed %q", v)
			}
			plan.Seed = n
			continue
		}
		if v, ok := strings.CutPrefix(clause, "mode="); ok {
			switch v {
			case "auto":
				plan.Mode = CrashAuto
			case "stop":
				plan.Mode = CrashStop
			case "abort":
				plan.Mode = CrashAbort
			default:
				return nil, fmt.Errorf("mpi: fault spec: unknown mode %q (auto, stop, abort)", v)
			}
			continue
		}
		rule, err := parseFaultRule(clause)
		if err != nil {
			return nil, err
		}
		plan.Rules = append(plan.Rules, rule)
	}
	if len(plan.Rules) == 0 {
		return nil, fmt.Errorf("mpi: fault spec %q has no rules", spec)
	}
	return plan, nil
}

func parseFaultRule(clause string) (FaultRule, error) {
	name, params, _ := strings.Cut(clause, ":")
	rule := FaultRule{Rank: AnyRank}
	switch strings.TrimSpace(name) {
	case "delay":
		rule.Kind = FaultDelay
	case "stall":
		rule.Kind = FaultStall
	case "crash":
		rule.Kind = FaultCrash
	case "jump":
		rule.Kind = FaultClockJump
	case "rendezvous":
		rule.Kind = FaultRendezvous
	case "wiredelay":
		rule.Kind = FaultWireDelay
	case "wirecorrupt":
		rule.Kind = FaultWireCorrupt
	case "wiredup":
		rule.Kind = FaultWireDup
	case "wiredrop":
		rule.Kind = FaultWireDrop
	case "wirereset":
		rule.Kind = FaultWireReset
	case "wirestall":
		rule.Kind = FaultWireStall
	default:
		return rule, fmt.Errorf("mpi: fault spec: unknown fault kind %q", name)
	}
	if params != "" {
		for _, p := range strings.Split(params, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(p), "=")
			if !ok {
				return rule, fmt.Errorf("mpi: fault spec: bad parameter %q in %q", p, clause)
			}
			var err error
			switch key {
			case "rank":
				if val == "*" {
					rule.Rank = AnyRank
				} else {
					rule.Rank, err = strconv.Atoi(val)
				}
			case "op":
				rule.Op, err = strconv.Atoi(val)
			case "prob":
				rule.Prob, err = strconv.ParseFloat(val, 64)
			case "dur":
				rule.Delay, err = time.ParseDuration(val)
			case "sec":
				rule.JumpSec, err = strconv.ParseFloat(val, 64)
			default:
				return rule, fmt.Errorf("mpi: fault spec: unknown parameter %q in %q", key, clause)
			}
			if err != nil {
				return rule, fmt.Errorf("mpi: fault spec: bad value %q for %q in %q", val, key, clause)
			}
		}
	}
	return rule, validateFaultRule(rule)
}

func validateFaultRule(r FaultRule) error {
	if r.Op < 0 {
		return fmt.Errorf("mpi: fault spec: negative op %d", r.Op)
	}
	if r.Prob < 0 || r.Prob > 1 {
		return fmt.Errorf("mpi: fault spec: probability %g out of [0,1]", r.Prob)
	}
	if r.Op == 0 && r.Prob == 0 {
		return fmt.Errorf("mpi: fault spec: %s rule needs op= or prob=", r.Kind)
	}
	switch r.Kind {
	case FaultDelay, FaultStall, FaultWireDelay, FaultWireStall:
		if r.Delay <= 0 {
			return fmt.Errorf("mpi: fault spec: %s rule needs dur= > 0", r.Kind)
		}
	case FaultClockJump:
		if r.JumpSec == 0 {
			return fmt.Errorf("mpi: fault spec: jump rule needs sec= != 0")
		}
	}
	if r.Kind.wire() && r.JumpSec != 0 {
		return fmt.Errorf("mpi: fault spec: %s rule takes no sec=", r.Kind)
	}
	return nil
}
