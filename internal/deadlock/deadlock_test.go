package deadlock

import (
	"math/rand"
	"strings"
	"testing"
)

func TestNoWaitsNoDeadlock(t *testing.T) {
	g := New()
	if rep := g.Check(); rep != nil {
		t.Fatalf("empty graph reported deadlock: %v", rep)
	}
}

func TestSingleWaitOnRunningPeer(t *testing.T) {
	g := New()
	g.SetWait(1, Wait{Op: "PI_Read", Peers: []int{2}})
	if rep := g.Check(); rep != nil {
		t.Fatalf("wait on running peer reported deadlock: %v", rep)
	}
}

func TestTwoCycle(t *testing.T) {
	// The classic: A reads from B while B reads from A.
	g := New()
	g.SetWait(1, Wait{Op: "PI_Read", Peers: []int{2}})
	g.SetWait(2, Wait{Op: "PI_Read", Peers: []int{1}})
	rep := g.Check()
	if rep == nil {
		t.Fatal("read/read cycle not detected")
	}
	if len(rep.Procs) != 2 || rep.Procs[0] != 1 || rep.Procs[1] != 2 {
		t.Fatalf("stuck set %v, want [1 2]", rep.Procs)
	}
}

func TestThreeCycle(t *testing.T) {
	g := New()
	g.SetWait(1, Wait{Op: "PI_Read", Peers: []int{2}})
	g.SetWait(2, Wait{Op: "PI_Read", Peers: []int{3}})
	g.SetWait(3, Wait{Op: "PI_Write", Peers: []int{1}})
	rep := g.Check()
	if rep == nil || len(rep.Procs) != 3 {
		t.Fatalf("3-cycle: %v", rep)
	}
}

func TestChainIntoCycleDragsTail(t *testing.T) {
	// 4 waits on 1; 1 and 2 are cyclic: all three are stuck.
	g := New()
	g.SetWait(1, Wait{Peers: []int{2}})
	g.SetWait(2, Wait{Peers: []int{1}})
	g.SetWait(4, Wait{Peers: []int{1}})
	rep := g.Check()
	if rep == nil || len(rep.Procs) != 3 {
		t.Fatalf("chain into cycle: %v", rep)
	}
}

func TestWaitOnExited(t *testing.T) {
	g := New()
	g.SetExited(5)
	g.SetWait(1, Wait{Op: "PI_Read", Peers: []int{5}, Loc: "app.go:42"})
	rep := g.Check()
	if rep == nil || len(rep.Procs) != 1 || rep.Procs[0] != 1 {
		t.Fatalf("wait on exited: %v", rep)
	}
	if !strings.Contains(rep.String(), "app.go:42") {
		t.Errorf("report lacks source location: %q", rep.String())
	}
	if !strings.Contains(rep.String(), "PI_Read") {
		t.Errorf("report lacks op name: %q", rep.String())
	}
}

func TestClearWaitResolves(t *testing.T) {
	g := New()
	g.SetWait(1, Wait{Peers: []int{2}})
	g.SetWait(2, Wait{Peers: []int{1}})
	g.ClearWait(2)
	if rep := g.Check(); rep != nil {
		t.Fatalf("cleared wait still deadlocked: %v", rep)
	}
}

func TestSelectAnyOfNeedsAllPeersStuck(t *testing.T) {
	g := New()
	// P1 selects on {2,3}. P2 is stuck in a cycle with P4, but P3 runs.
	g.SetWait(1, Wait{Op: "PI_Select", Peers: []int{2, 3}, AnyOf: true})
	g.SetWait(2, Wait{Peers: []int{4}})
	g.SetWait(4, Wait{Peers: []int{2}})
	rep := g.Check()
	if rep == nil {
		t.Fatal("cycle 2<->4 not detected")
	}
	for _, p := range rep.Procs {
		if p == 1 {
			t.Fatal("select with a live peer flagged as stuck")
		}
	}
	// Now P3 exits: every select peer is unable to act.
	g.SetExited(3)
	rep = g.Check()
	found := false
	for _, p := range rep.Procs {
		if p == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("select with all peers stuck not flagged: %v", rep.Procs)
	}
}

func TestAllOfCollectiveWait(t *testing.T) {
	g := New()
	// Gather endpoint 0 waits on workers 1, 2, 3; worker 2 waits on 0:
	// a collective cycle.
	g.SetWait(0, Wait{Op: "PI_Gather", Peers: []int{1, 2, 3}})
	g.SetWait(2, Wait{Op: "PI_Read", Peers: []int{0}})
	rep := g.Check()
	if rep == nil {
		t.Fatal("collective cycle not detected")
	}
	if len(rep.Procs) != 2 {
		t.Fatalf("stuck set %v, want [0 2]", rep.Procs)
	}
}

func TestSelectEmptyPeers(t *testing.T) {
	g := New()
	g.SetWait(1, Wait{Op: "PI_Select", AnyOf: true})
	if rep := g.Check(); rep == nil {
		t.Fatal("select on nothing should be stuck")
	}
}

func TestExitedProcessIsNotItselfStuck(t *testing.T) {
	g := New()
	g.SetWait(3, Wait{Peers: []int{4}})
	g.SetExited(3)
	if rep := g.Check(); rep != nil {
		t.Fatalf("exited process reported stuck: %v", rep)
	}
}

func TestWaitingQuery(t *testing.T) {
	g := New()
	if g.Waiting(1) {
		t.Fatal("fresh graph reports waiting")
	}
	g.SetWait(1, Wait{Peers: []int{2}})
	if !g.Waiting(1) {
		t.Fatal("SetWait not visible")
	}
	g.ClearWait(1)
	if g.Waiting(1) {
		t.Fatal("ClearWait not visible")
	}
}

// Property test on single-wait graphs: a waiting process is stuck exactly
// when following its wait chain reaches a cycle or an exited process.
func TestSingleWaitChainsProperty(t *testing.T) {
	const n = 12
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		target := make([]int, n) // -1 = running
		exited := make([]bool, n)
		for p := 0; p < n; p++ {
			switch rng.Intn(3) {
			case 0:
				target[p] = -1
			case 1:
				target[p] = -1
				exited[p] = true
				g.SetExited(p)
			default:
				q := rng.Intn(n)
				for q == p {
					q = rng.Intn(n)
				}
				target[p] = q
				g.SetWait(p, Wait{Peers: []int{q}})
			}
		}
		// Reference: follow the chain.
		stuckRef := func(p int) bool {
			if target[p] < 0 {
				return false
			}
			seen := map[int]bool{}
			cur := p
			for {
				if seen[cur] {
					return true // cycle
				}
				seen[cur] = true
				nxt := target[cur]
				if exited[cur] && cur != p {
					return true
				}
				if nxt < 0 {
					// cur is running (or exited); p is stuck iff cur exited
					return exited[cur]
				}
				cur = nxt
			}
		}
		rep := g.Check()
		got := map[int]bool{}
		if rep != nil {
			for _, p := range rep.Procs {
				got[p] = true
			}
		}
		for p := 0; p < n; p++ {
			if exited[p] || target[p] < 0 {
				if got[p] {
					t.Fatalf("seed %d: non-waiting P%d flagged", seed, p)
				}
				continue
			}
			want := stuckRef(p)
			if got[p] != want {
				t.Fatalf("seed %d: P%d stuck=%v, want %v (targets=%v exited=%v)",
					seed, p, got[p], want, target, exited)
			}
		}
	}
}

// Regression: an all-of wait with an empty Peers list is a wait on nobody
// — it resolves immediately and must not be reported as deadlocked. Before
// the fix, Check marked every empty-peer non-AnyOf wait permanently
// unjustifiable.
func TestEmptyPeersAllOfNotDeadlocked(t *testing.T) {
	g := New()
	g.SetWait(1, Wait{Op: "PI_Write", Peers: nil})
	if rep := g.Check(); rep != nil {
		t.Fatalf("empty all-of wait reported deadlocked:\n%s", rep)
	}
	// And it must still justify processes waiting on it transitively.
	g.SetWait(2, Wait{Op: "PI_Read", Peers: []int{1}})
	if rep := g.Check(); rep != nil {
		t.Fatalf("wait on an empty-wait process reported deadlocked:\n%s", rep)
	}
}

// An any-of wait with no peers can never be resolved by anyone: it is a
// PI_Select over nothing and stays stuck.
func TestEmptyPeersAnyOfIsDeadlocked(t *testing.T) {
	g := New()
	g.SetWait(1, Wait{Op: "PI_Select", Peers: nil, AnyOf: true})
	rep := g.Check()
	if rep == nil || len(rep.Procs) != 1 || rep.Procs[0] != 1 {
		t.Fatalf("empty any-of wait: got %v, want P1 stuck", rep)
	}
}

// Waiting reports whether proc currently has a recorded wait.
func (g *Graph) Waiting(proc int) bool {
	_, ok := g.waits[proc]
	return ok
}
