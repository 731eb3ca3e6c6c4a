package mpi

import (
	"fmt"
	"os"
	"sync"
)

// Transport names accepted by Options.Transport.
const (
	// TransportInproc (the default) runs every rank as a goroutine in
	// this process: deterministic, race-detectable, supports Manual
	// clocks and seeded fault injection — the substrate every test and
	// golden trace runs on.
	TransportInproc = "inproc"
	// TransportSocket runs every rank as its own OS process, exchanging
	// length-framed envelopes over unix-domain sockets with rank 0
	// orchestrating spawn, rank numbering, barrier and abort teardown.
	TransportSocket = "socket"
	// TransportTCP is TransportSocket over loopback TCP, for systems
	// without unix-domain sockets (or, with ListenAddr, real networks).
	TransportTCP = "tcp"
)

// Environment variables a spawned rank process reads to join its world.
// The parent sets them on every child it launches; a program that finds
// them set (see Spawned) is one rank of an existing world, not a new
// orchestrator.
const (
	// EnvRank is the child's rank number.
	EnvRank = "PILOT_MPI_RANK"
	// EnvAddr is the join address, "unix:<path>" or "tcp:<host:port>".
	EnvAddr = "PILOT_MPI_ADDR"
	// EnvWorld is the world size, cross-checked against the child's own
	// configuration so a drifted re-exec fails loudly instead of hanging.
	EnvWorld = "PILOT_MPI_WORLD"
)

// Spawned reports whether this process was launched as one rank of a
// multi-process world: Start then joins it. Programs embedding a custom
// child entry point (benchmark harnesses, test binaries) check it before
// doing parent-only work.
func Spawned() bool { return os.Getenv(EnvAddr) != "" && os.Getenv(EnvRank) != "" }

// Envelope is one in-flight message as a Transport sees it.
type Envelope struct {
	Ctx, Src, Tag int
	Data          []byte
	// Done is non-nil for rendezvous sends; whoever matches the envelope
	// (the receiving Rank, directly or via the transport's ack machinery)
	// closes it, releasing the blocked sender.
	Done chan struct{}
}

// Transport is the substrate behind the mailbox: it moves envelopes
// between ranks and implements the world-wide control plane — matched
// delivery, probing, the barrier, and abort fan-out. The in-process
// transport keeps every mailbox in one address space; the socket
// transport hosts exactly one rank per OS process and carries everything
// else over the wire.
type Transport interface {
	// Put delivers env to dst's mailbox, returning false once the world
	// is aborted. Put never waits for a rendezvous match; the sender
	// blocks on env.Done.
	Put(dst int, env *Envelope) bool
	// Take removes and returns the first envelope matching (ctx, src,
	// tag) addressed to rank me, blocking until one arrives. ok=false
	// means the world aborted. me must be hosted by this process.
	Take(me, ctx, src, tag int) (*Envelope, bool)
	// Probe reports a matching envelope's status without removing it;
	// it never waits: ok=false means none is available now.
	Probe(me, ctx, src, tag int) (Status, bool)
	// Barrier blocks rank me until every rank in the world has entered.
	Barrier(me int) error
	// Abort tears the transport down everywhere: local mailboxes close,
	// blocked barriers fail, remote ranks are notified. Idempotent; the
	// World has already recorded the abort code when it is called.
	Abort(code int)
	// Shutdown releases transport resources after the job completes: the
	// orchestrator reaps rank processes (killing stragglers), a rank
	// announces a clean goodbye. It reports rank processes that exited
	// abnormally. Idempotent via World.Shutdown.
	Shutdown() error
}

// Start creates a world of n ranks on the transport opts selects. For
// the in-process transport it cannot fail (beyond a non-positive n). For
// a multi-process transport the calling process becomes either the
// orchestrator — rank 0, which listens, spawns the other ranks (unless
// Options.NoSpawn) and routes their traffic — or, when the spawn
// environment variables are present (see Spawned) or Options.JoinAddr is
// set, a single joining rank.
func Start(n int, opts Options) (*World, error) {
	if n < 1 {
		return nil, fmt.Errorf("mpi: Start with %d ranks", n)
	}
	w := newWorldShell(n, opts)
	switch opts.Transport {
	case "", TransportInproc:
		w.local = -1
		w.t = newInprocTransport(n)
	case TransportSocket, TransportTCP:
		t, err := newSocketTransport(w, n, opts)
		if err != nil {
			return nil, err
		}
		w.local = t.local
		w.t = t
		t.startReaders()
	default:
		return nil, fmt.Errorf("mpi: unknown transport %q", opts.Transport)
	}
	return w, nil
}

// inprocTransport is the original substrate: one mailbox per rank in one
// address space, a condition-variable barrier, and abort by closing every
// mailbox. It stays the default so determinism, chaos seeds and golden
// traces are untouched by the Transport extraction.
type inprocTransport struct {
	size    int
	boxes   []*mailbox
	barrier barrierState
}

func newInprocTransport(n int) *inprocTransport {
	t := &inprocTransport{size: n, boxes: make([]*mailbox, n)}
	for i := range t.boxes {
		t.boxes[i] = newMailbox()
	}
	t.barrier.cond = sync.NewCond(&t.barrier.mu)
	return t
}

func (t *inprocTransport) Put(dst int, env *Envelope) bool { return t.boxes[dst].put(env) }

func (t *inprocTransport) Take(me, ctx, src, tag int) (*Envelope, bool) {
	return t.boxes[me].take(ctx, src, tag)
}

func (t *inprocTransport) Probe(me, ctx, src, tag int) (Status, bool) {
	return t.boxes[me].probe(ctx, src, tag)
}

func (t *inprocTransport) Barrier(int) error {
	b := &t.barrier
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.aborted {
		return ErrAborted
	}
	gen := b.gen
	b.count++
	if b.count == t.size {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return nil
	}
	for b.gen == gen && !b.aborted {
		b.cond.Wait()
	}
	if b.aborted {
		return ErrAborted
	}
	return nil
}

func (t *inprocTransport) Abort(int) {
	for _, b := range t.boxes {
		b.close()
	}
	t.barrier.mu.Lock()
	t.barrier.aborted = true
	t.barrier.cond.Broadcast()
	t.barrier.mu.Unlock()
}

func (t *inprocTransport) Shutdown() error { return nil }

type barrierState struct {
	mu      sync.Mutex
	cond    *sync.Cond
	count   int
	gen     int
	aborted bool
}
