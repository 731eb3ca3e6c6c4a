// Package core implements the Pilot runtime: the process/channel
// programming model from the paper ("A friendly face for MPI"), its
// fscanf/fprintf-style typed I/O, collective operations over bundles,
// run-time services selectable like Pilot's -pisvc command-line option —
// native call logging (c), the integrated deadlock detector (d), and the
// MPE/Jumpshot visual log (j) that is the paper's contribution — plus the
// multi-level error checking Pilot is known for.
//
// The public pilot package re-exports this API; see that package for the
// C-to-Go name mapping.
package core

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/mpi"
)

// Service letters accepted in Config.Services, matching Pilot's -pisvc=
// option values.
const (
	// SvcNativeLog ("c") streams every API call to a text log written as
	// events arrive at the service process — Pilot's original logging
	// facility, with the three shortcomings Section I describes.
	SvcNativeLog = 'c'
	// SvcDeadlock ("d") enables the integrated deadlock detector.
	SvcDeadlock = 'd'
	// SvcJumpshot ("j") enables MPE logging for Jumpshot — the paper's
	// new facility.
	SvcJumpshot = 'j'
)

// DefaultArrowSpread is the artificial delay inserted between the arrows
// of a collective fan-out, the paper's fix for superimposed drawables:
// "with just 1 ms of delay per arrow, the problem is eliminated".
const DefaultArrowSpread = time.Millisecond

// Config is everything PI_Configure needs. The zero value is not runnable;
// NumProcs must be set.
type Config struct {
	// NumProcs is the total number of MPI ranks to simulate, exactly like
	// mpirun -np N: PI_MAIN takes rank 0, created processes take ranks
	// 1..N-2 or N-1, and one rank is reserved for the service process when
	// native logging or deadlock detection is on.
	NumProcs int

	// Services holds the -pisvc= letters: any combination of "c", "d", "j".
	Services string

	// CheckLevel is Pilot's error-check level 0–3: 1 = API-abuse checks,
	// 2 = reader/writer format matching, 3 = full argument validation.
	CheckLevel int

	// NoMPE simulates a Pilot installation built without the optional MPE
	// library: requesting the "j" service then prints a warning and
	// disables the visual log instead of failing.
	NoMPE bool

	// RobustLog implements the paper's future work: with the "j" service,
	// every rank also writes each log record through to a per-rank spill
	// file, and if the program aborts (PI_Abort or deadlock) the spills
	// are salvaged into a usable CLOG-2 at JumpshotPath instead of the
	// log being lost. Costs one buffered write + flush per record.
	RobustLog bool

	// JumpshotPath is where the merged CLOG-2 file is written at StopMain
	// (default "pilot.clog2").
	JumpshotPath string

	// NativePath is where the native text log is streamed (default
	// "pilot.log").
	NativePath string

	// ArrowSpread is the delay between per-channel sends in collective
	// operations; 0 selects DefaultArrowSpread, negative disables the
	// spread (used by the Equal-Drawables ablation).
	ArrowSpread time.Duration

	// Clocks optionally supplies per-rank wallclocks (offset, drift,
	// resolution), exercising MPE's clock synchronisation. Missing entries
	// share one real clock.
	Clocks []clock.Source

	// Transport selects the rank substrate: "" or "inproc" runs every
	// rank as a goroutine in this process (the default — deterministic,
	// supports Manual clocks); "socket" and "tcp" run every rank as its
	// own OS process over unix-domain or loopback TCP sockets,
	// re-executing this program once per rank (see mpi.TransportSocket).
	// The -pitransport= flag sets it.
	Transport string

	// SpawnCommand overrides the argv launched once per remote rank under
	// a multi-process transport. Empty re-executes the current binary
	// with its original arguments, which is correct whenever the Pilot
	// configuration is a pure function of argv (the usual case).
	SpawnCommand []string

	// SpawnEnv appends environment entries ("K=V") to each spawned rank
	// process.
	SpawnEnv []string

	// Faults installs a deterministic fault-injection plan into the MPI
	// substrate (nil = none); see mpi.FaultPlan and mpi.ParseFaultPlan
	// for the spec grammar. The runtime threads every injected fault into
	// the active logs as a FaultInjected solo event, and resolves
	// mpi.CrashAuto to CrashStop when the deadlock detector is on (the
	// crash becomes a diagnosed deadlock) and CrashAbort otherwise (a
	// clean ErrAborted unwind) — an injected crash never leaves a silent
	// hang.
	Faults *mpi.FaultPlan

	// Metrics enables the live observability collector (package stats):
	// per-rank and per-channel counters and wait-time histograms gathered
	// on the hot path and exported via expvar. Off by default; the
	// -pistats flag turns it on.
	Metrics bool

	// DeadlockGrace is how long the detector waits for late completion
	// events before trusting a suspected deadlock (default 50 ms).
	DeadlockGrace time.Duration

	// Stderr receives warnings and deadlock diagnostics (default
	// os.Stderr).
	Stderr io.Writer
}

// normalized fills defaults and validates. It returns a copy.
func (c Config) normalized() (Config, error) {
	if c.NumProcs < 1 {
		return c, errorf("PI_Configure", "", "NumProcs is %d; a Pilot program needs at least PI_MAIN", c.NumProcs)
	}
	for _, ch := range c.Services {
		switch ch {
		case SvcNativeLog, SvcDeadlock, SvcJumpshot:
		default:
			return c, errorf("PI_Configure", "", "unknown service letter %q in -pisvc=%s (valid: c, d, j)", ch, c.Services)
		}
	}
	if c.CheckLevel < 0 || c.CheckLevel > 3 {
		return c, errorf("PI_Configure", "", "check level %d out of range 0-3", c.CheckLevel)
	}
	if c.JumpshotPath == "" {
		c.JumpshotPath = "pilot.clog2"
	}
	if c.NativePath == "" {
		c.NativePath = "pilot.log"
	}
	if c.ArrowSpread == 0 {
		c.ArrowSpread = DefaultArrowSpread
	}
	if c.DeadlockGrace <= 0 {
		c.DeadlockGrace = 50 * time.Millisecond
	}
	switch c.Transport {
	case "", mpi.TransportInproc:
	case mpi.TransportSocket, mpi.TransportTCP:
		if len(c.Clocks) > 0 {
			// A per-rank clock.Source lives in one address space; a Manual
			// clock ticked by the test harness cannot reach ranks running
			// in other processes.
			return c, errorf("PI_Configure", "", "custom Clocks need the in-process transport, not %q", c.Transport)
		}
	default:
		return c, errorf("PI_Configure", "", "unknown transport %q (valid: inproc, socket, tcp)", c.Transport)
	}
	return c, nil
}

// HasService reports whether the given service letter is enabled.
func (c Config) HasService(letter rune) bool {
	return strings.ContainsRune(c.Services, letter)
}

// needsSvcRank reports whether a rank must be reserved for the service
// process. As in Pilot, the native log and the deadlock detector share one
// dedicated process; MPE logging costs no extra rank (the asymmetry
// measured in Section III.E).
func (c Config) needsSvcRank() bool {
	return c.HasService(SvcNativeLog) || c.HasService(SvcDeadlock)
}

// ParseArgs consumes Pilot's command-line options from args and applies
// them to cfg, returning the remaining arguments. Recognised options,
// exactly as in Pilot:
//
//	-pisvc=LETTERS   enable services, e.g. -pisvc=cj
//	-picheck=N       set the error-check level 0-3
//	-piprocs=N       world size (stands in for mpirun -np N)
//	-pifaults=SPEC   install a fault-injection plan (mpi.ParseFaultPlan);
//	                 besides the per-operation kinds this includes the
//	                 wire-level ones — wiredelay, wirecorrupt, wiredup,
//	                 wiredrop, wirereset, wirestall — which the socket
//	                 transport injects deterministically on its links,
//	                 e.g. -pifaults="seed=7;wiredrop:rank=1,op=3"
//	-pistats         enable the live metrics collector (package stats)
//	-pitransport=T   rank substrate: inproc (default), socket, tcp
//
// Unknown arguments pass through untouched, as PI_Configure leaves the
// application's own flags alone.
func ParseArgs(cfg *Config, args []string) ([]string, error) {
	var rest []string
	for _, a := range args {
		switch {
		case strings.HasPrefix(a, "-pisvc="):
			cfg.Services = a[len("-pisvc="):]
		case strings.HasPrefix(a, "-picheck="):
			n, err := strconv.Atoi(a[len("-picheck="):])
			if err != nil {
				return nil, errorf("PI_Configure", "", "bad -picheck value %q", a)
			}
			cfg.CheckLevel = n
		case strings.HasPrefix(a, "-piprocs="):
			n, err := strconv.Atoi(a[len("-piprocs="):])
			if err != nil {
				return nil, errorf("PI_Configure", "", "bad -piprocs value %q", a)
			}
			cfg.NumProcs = n
		case strings.HasPrefix(a, "-pifaults="):
			plan, err := mpi.ParseFaultPlan(a[len("-pifaults="):])
			if err != nil {
				return nil, errorf("PI_Configure", "", "bad -pifaults value %q: %v", a, err)
			}
			cfg.Faults = plan
		case a == "-pistats":
			cfg.Metrics = true
		case strings.HasPrefix(a, "-pitransport="):
			cfg.Transport = a[len("-pitransport="):]
		default:
			rest = append(rest, a)
		}
	}
	return rest, nil
}

// Error is the diagnostic type for all Pilot API failures. Pilot prints
// diagnostics "that pinpoint the problem right to the line of source
// code"; Error carries the operation, the caller's location, and the
// explanation.
type Error struct {
	Op  string // Pilot function name, e.g. "PI_Read"
	Loc string // caller file:line, when captured
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Loc != "" {
		return fmt.Sprintf("pilot: %s at %s: %s", e.Op, e.Loc, e.Msg)
	}
	return fmt.Sprintf("pilot: %s: %s", e.Op, e.Msg)
}

func errorf(op, loc, format string, args ...any) *Error {
	return &Error{Op: op, Loc: loc, Msg: fmt.Sprintf(format, args...)}
}
