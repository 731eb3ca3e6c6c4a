package core

import (
	"fmt"

	"repro/internal/mpe"
)

// Self is the process-context handle passed to every work function (and
// returned for PI_MAIN by StartAll). It carries the operations whose
// meaning depends on which process is calling: PI_Log, PI_StartTime,
// PI_EndTime, PI_Abort, PI_IsLogging and naming.
type Self struct {
	r    *Runtime
	proc *Process
}

// Rank returns the caller's MPI rank.
func (s *Self) Rank() int { return s.proc.rank }

// Process returns the caller's process handle.
func (s *Self) Process() *Process { return s.proc }

// Name returns the caller's display name.
func (s *Self) Name() string { return s.proc.Name() }

// SetName assigns the caller's display name (PI_SetName).
func (s *Self) SetName(name string) { s.proc.SetName(name) }

// IsLogging reports whether the given service is active (PI_IsLogging):
// pass SvcJumpshot, SvcNativeLog or SvcDeadlock.
func (s *Self) IsLogging(service rune) bool {
	if service == SvcJumpshot {
		return s.r.jlog
	}
	return s.r.cfg.HasService(service)
}

// Log is PI_Log: an arbitrary text entry in whichever logs are active —
// a bubble in the visual log, a line in the native log. With neither log
// active the call does no formatting work at all.
//
//go:noinline
func (s *Self) Log(text string) error {
	log := s.r.logger(s.proc.rank)
	natOn := s.r.nativeOn()
	if !log.Enabled() && !natOn {
		return nil
	}
	loc := callerLoc(1)
	if log.Enabled() {
		var cb mpe.Cargo
		log.EventBytes(s.r.events["PI_Log"], cb.KV("line", loc).Str(" ").Str(text).Bytes())
	}
	if natOn {
		s.r.nativeLog(s.proc.rank, fmt.Sprintf("%s PI_Log %q %s", s.proc.Name(), text, loc))
	}
	return nil
}

// StartTime is PI_StartTime: it returns the caller's wallclock in seconds
// and drops a bubble in the visual log.
//
//go:noinline
func (s *Self) StartTime() float64 {
	t := s.r.world.Rank(s.proc.rank).Wtime()
	if log := s.r.logger(s.proc.rank); log.Enabled() {
		var cb mpe.Cargo
		log.EventBytes(s.r.events["PI_StartTime"],
			cb.Str("t: ").Float(t, 6).KV("line", callerLoc(1)).Bytes())
	}
	return t
}

// EndTime is PI_EndTime: identical to StartTime but logged distinctly so
// the pair brackets a user-timed region in the display.
//
//go:noinline
func (s *Self) EndTime() float64 {
	t := s.r.world.Rank(s.proc.rank).Wtime()
	if log := s.r.logger(s.proc.rank); log.Enabled() {
		var cb mpe.Cargo
		log.EventBytes(s.r.events["PI_EndTime"],
			cb.Str("t: ").Float(t, 6).KV("line", callerLoc(1)).Bytes())
	}
	return t
}

// Abort is PI_Abort: print a diagnostic pinpointing the call site and
// bring down every rank via MPI_Abort. As the paper documents, this loses
// any MPE log, while the native log survives because it streams to disk.
//
//go:noinline
func (s *Self) Abort(code int, msg string) {
	loc := callerLoc(1)
	s.r.warnf("pilot: PI_Abort at %s by %s (rank %d), code %d: %s",
		loc, s.proc.Name(), s.proc.rank, code, msg)
	if s.r.nativeOn() {
		s.r.nativeLog(s.proc.rank, fmt.Sprintf("%s PI_Abort code=%d %q %s", s.proc.Name(), code, msg, loc))
	}
	s.r.world.Rank(s.proc.rank).Abort(code)
}
