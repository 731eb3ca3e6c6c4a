// Package deadlock implements the wait-for-graph analysis behind Pilot's
// integrated deadlock detector ("not reliant on any third-party tools").
// Pilot runs the detector in a dedicated service process that receives an
// event before each potentially blocking operation and after it completes;
// this package is the pure analysis those events feed.
//
// The model: each process is either running, waiting, or exited. A wait
// names the peer processes that must act for the operation to complete —
// all of them for a point-to-point or collective operation, any one of
// them for PI_Select. A set of processes is deadlocked when none of its
// members can ever move: classic read/read cycles, writes waiting on each
// other through rendezvous, and reads from processes that have already
// exited are all caught by the same fixpoint.
package deadlock

import (
	"fmt"
	"sort"
	"strings"
)

// Wait describes one blocked operation.
type Wait struct {
	// Op is the Pilot operation name, e.g. "PI_Read".
	Op string
	// Peers are the processes that must act for this wait to resolve.
	Peers []int
	// AnyOf marks waits resolved by any single peer (PI_Select); when
	// false every peer must act (point-to-point and collectives).
	AnyOf bool
	// Loc is the source location of the call, for diagnostics.
	Loc string
}

// Graph tracks the current wait state of every process.
type Graph struct {
	waits  map[int]Wait
	exited map[int]bool
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{waits: map[int]Wait{}, exited: map[int]bool{}}
}

// SetWait records that proc is blocked on w, replacing any previous wait.
func (g *Graph) SetWait(proc int, w Wait) {
	g.waits[proc] = w
}

// ClearWait records that proc's blocking operation completed.
func (g *Graph) ClearWait(proc int) {
	delete(g.waits, proc)
}

// SetExited records that proc's work function returned; it will never act
// again, so waits on it can only be satisfied by traffic already in
// flight.
func (g *Graph) SetExited(proc int) {
	g.exited[proc] = true
	delete(g.waits, proc)
}

// Report describes a detected deadlock.
type Report struct {
	// Procs is the sorted set of stuck processes.
	Procs []int
	// Waits maps each stuck process to its blocked operation.
	Waits map[int]Wait
}

// String renders the report as the multi-line diagnostic Pilot prints.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DEADLOCK: %d process(es) cannot proceed:\n", len(r.Procs))
	for _, p := range r.Procs {
		w := r.Waits[p]
		mode := "all of"
		if w.AnyOf {
			mode = "any of"
		}
		fmt.Fprintf(&b, "  P%d blocked in %s waiting on %s %v", p, w.Op, mode, w.Peers)
		if w.Loc != "" {
			fmt.Fprintf(&b, " at %s", w.Loc)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Check runs the fixpoint and returns a report of stuck processes, or nil
// when every waiting process can still make progress.
//
// The analysis computes the least fixpoint of "can move": running
// processes can move; exited processes cannot act; a waiting process can
// move once all (or, for AnyOf, at least one) of its peers are known to be
// able to move. Progress must therefore be justified transitively from a
// running process — members of a wait cycle never acquire it, and neither
// do processes waiting on the exited. Waiting processes left outside the
// fixpoint are deadlocked.
func (g *Graph) Check() *Report {
	// false until justified; absent = running (movable) unless exited.
	canMove := map[int]bool{}
	for p := range g.waits {
		canMove[p] = false
	}
	peerCanMove := func(q int) bool {
		if g.exited[q] {
			return false
		}
		if cm, ok := canMove[q]; ok {
			return cm
		}
		return true // not waiting, not exited: running
	}
	for changed := true; changed; {
		changed = false
		for p, w := range g.waits {
			if canMove[p] {
				continue
			}
			// An all-of wait with no peers is vacuously satisfied — a wait
			// on nobody resolves immediately and must never be reported as
			// deadlocked. An any-of wait with no peers is the opposite: no
			// peer can ever act, so it stays unjustified (and stuck).
			ok := !w.AnyOf
			if w.AnyOf {
				for _, q := range w.Peers {
					if peerCanMove(q) {
						ok = true
						break
					}
				}
			} else {
				for _, q := range w.Peers {
					if !peerCanMove(q) {
						ok = false
						break
					}
				}
			}
			if ok {
				canMove[p] = true
				changed = true
			}
		}
	}
	var stuck []int
	for p := range g.waits {
		if !canMove[p] {
			stuck = append(stuck, p)
		}
	}
	if len(stuck) == 0 {
		return nil
	}
	sort.Ints(stuck)
	rep := &Report{Procs: stuck, Waits: map[int]Wait{}}
	for _, p := range stuck {
		rep.Waits[p] = g.waits[p]
	}
	return rep
}
