// Package mpi is a simulated Message Passing Interface substrate: a fixed
// set of ranks exchanging byte-slice messages matched by (source, tag)
// with MPI's non-overtaking ordering guarantee.
//
// The real Pilot library runs on a real MPI (OpenMPI, MPICH). Go has no
// mature MPI bindings, so this package supplies the closest synthetic
// equivalent that exercises the same code paths the paper's tooling
// observes: rank identity, blocking matched receives, eager versus
// rendezvous sends, per-rank wallclocks (MPI_Wtime) that may drift, an
// MPI_Abort that tears down every rank, and a barrier.
//
// Ranks live behind a pluggable Transport. The default in-process
// transport runs every rank as a goroutine in one address space; the
// socket transport (Options.Transport = TransportSocket or TransportTCP)
// runs every rank as its own OS process and carries envelopes, barrier
// and abort traffic over length-framed stream connections, which is how
// the tooling escapes the one-process ceiling.
//
// Message contexts play the role of MPI communicators: traffic in one
// context never matches receives in another, so library-internal messages
// (log collection, services) cannot be stolen by user wildcard receives.
package mpi

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/stats"
)

// Wildcards for Recv and Iprobe, mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
const (
	AnySource = -1
	AnyTag    = -1
)

// Message contexts, the moral equivalent of MPI communicators.
const (
	// CtxUser carries application point-to-point traffic.
	CtxUser = 0
	// CtxColl is the collective context: Barrier counts in it for fault
	// injection. Pilot's collectives are per-channel user messages.
	CtxColl = 1
	// CtxLog carries log-collection traffic (MPE final merge).
	CtxLog = 2
	// CtxSvc carries service traffic (deadlock detector, native log).
	CtxSvc = 3
	numCtx = 4
)

// ErrAborted is returned from every blocked or subsequent operation once
// Abort has been called by any rank. It models MPI_Abort killing the whole
// job: in-flight communication is lost, which is precisely why the paper's
// MPE log cannot survive PI_Abort.
var ErrAborted = errors.New("mpi: world aborted")

// DefaultEagerLimit is the message size (bytes) up to which Send buffers
// and returns immediately; larger messages rendezvous with the receiver.
// Real MPIs switch protocols the same way.
const DefaultEagerLimit = 64 << 10

// Options configures a World.
type Options struct {
	// Clocks supplies one wallclock per rank. If nil or short, missing
	// entries share a single Real clock (all ranks on one node). In a
	// multi-process world each process only consults its local rank's
	// entry.
	Clocks []clock.Source
	// EagerLimit overrides DefaultEagerLimit when non-zero. A negative
	// value forces every send to rendezvous. Every process of a
	// multi-process world must use the same value.
	EagerLimit int
	// Faults installs a deterministic fault-injection plan (nil = none).
	// See FaultPlan.
	Faults *FaultPlan
	// Metrics, when non-nil, receives live observability counters
	// (messages, bytes, wait times) for user-context traffic. A nil
	// collector disables collection at zero cost.
	Metrics *stats.Collector

	// Transport selects the rank substrate: TransportInproc (the default
	// when empty), TransportSocket or TransportTCP. The remaining fields
	// only apply to multi-process transports.
	Transport string
	// ListenAddr overrides the orchestrator's listen address: a socket
	// path for TransportSocket, host:port for TransportTCP. Empty picks a
	// fresh path in the temp directory / a loopback ephemeral port.
	ListenAddr string
	// SpawnCommand is the argv the orchestrator launches once per remote
	// rank. Empty re-executes the current binary with os.Args[1:], which
	// is correct for programs whose configuration is argv-deterministic.
	SpawnCommand []string
	// SpawnEnv appends environment entries ("K=V") to each child beyond
	// the inherited environment and the PILOT_MPI_* join variables.
	SpawnEnv []string
	// NoSpawn makes the orchestrator listen and wait for externally
	// launched ranks instead of spawning them itself.
	NoSpawn bool
	// JoinAddr, when set, makes Start join an existing world as rank
	// JoinRank instead of orchestrating one. Normally left empty: spawned
	// children discover the same thing through the PILOT_MPI_* variables.
	JoinAddr string
	// JoinRank is this process's rank when JoinAddr is set.
	JoinRank int
}

// World is a simulated MPI job of a fixed number of ranks.
type World struct {
	size       int
	eagerLimit int
	clocks     []clock.Source
	t          Transport
	// local is the one rank this process hosts, or -1 when every rank is
	// local (the in-process transport).
	local int
	// ranks holds the n immutable rank handles; Rank() hands out
	// pointers into it so the accessor never allocates (it sits on
	// every logging and messaging hot path).
	ranks []Rank

	abortCh   chan struct{}
	abortOnce sync.Once
	abortCode int

	shutOnce sync.Once
	shutErr  error

	faults *faultState

	metrics *stats.Collector

	// Per-rank traffic counters (user context only), maintained with
	// atomics so any goroutine can snapshot them. In a multi-process
	// world each process counts its local rank; remote ranks' counters
	// are folded in at the orchestrator when they say goodbye.
	sent, sentBytes, recvd, recvdBytes []atomic.Int64
}

// NewWorld creates an in-process world of n ranks (or whatever transport
// opts selects). It panics on any Start error; a world that cannot be
// built in-process is a programming error, not a runtime condition.
// Multi-process callers should prefer Start, whose failures (spawn,
// handshake) are ordinary runtime errors.
func NewWorld(n int, opts Options) *World {
	w, err := Start(n, opts)
	if err != nil {
		panic(invariantf("mpi: NewWorld: %v", err))
	}
	return w
}

// newWorldShell builds the transport-independent part of a World.
func newWorldShell(n int, opts Options) *World {
	eager := opts.EagerLimit
	switch {
	case eager == 0:
		eager = DefaultEagerLimit
	case eager < 0:
		eager = -1
	}
	w := &World{
		size:       n,
		eagerLimit: eager,
		clocks:     make([]clock.Source, n),
		abortCh:    make(chan struct{}),
	}
	shared := clock.Source(nil)
	for i := 0; i < n; i++ {
		if i < len(opts.Clocks) && opts.Clocks[i] != nil {
			w.clocks[i] = opts.Clocks[i]
		} else {
			if shared == nil {
				shared = clock.NewReal()
			}
			w.clocks[i] = shared
		}
	}
	w.ranks = make([]Rank, n)
	for i := range w.ranks {
		w.ranks[i] = Rank{w: w, id: i}
	}
	w.metrics = opts.Metrics
	w.sent = make([]atomic.Int64, n)
	w.sentBytes = make([]atomic.Int64, n)
	w.recvd = make([]atomic.Int64, n)
	w.recvdBytes = make([]atomic.Int64, n)
	if opts.Faults != nil {
		w.faults = newFaultState(*opts.Faults, n)
		if opts.Faults.hasKind(FaultClockJump) {
			// Per-rank shims so a jump on one rank never moves a clock
			// shared with its siblings.
			for i := range w.clocks {
				w.clocks[i] = &faultClock{base: w.clocks[i]}
			}
		}
	}
	return w
}

// Traffic summarises one rank's user-context message flow.
type Traffic struct {
	Sent, SentBytes     int64
	Received, RecvBytes int64
}

// Traffic returns rank id's counters (user context only; collective,
// logging and service traffic is internal bookkeeping). In a
// multi-process world a remote rank's counters are zero until its
// process exits cleanly, at which point the orchestrator folds them in.
func (w *World) Traffic(id int) Traffic {
	return Traffic{
		Sent:      w.sent[id].Load(),
		SentBytes: w.sentBytes[id].Load(),
		Received:  w.recvd[id].Load(),
		RecvBytes: w.recvdBytes[id].Load(),
	}
}

// TotalTraffic sums every rank's counters.
func (w *World) TotalTraffic() Traffic {
	var t Traffic
	for i := 0; i < w.size; i++ {
		r := w.Traffic(i)
		t.Sent += r.Sent
		t.SentBytes += r.SentBytes
		t.Received += r.Received
		t.RecvBytes += r.RecvBytes
	}
	return t
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Metrics returns the attached stats collector (nil when disabled).
func (w *World) Metrics() *stats.Collector { return w.metrics }

// LocalRank returns the one rank this process hosts, or -1 when every
// rank is local (the in-process transport).
func (w *World) LocalRank() int { return w.local }

// Local reports whether rank id runs in this process.
func (w *World) Local(id int) bool { return w.local < 0 || w.local == id }

// Addr returns the address rank processes join this world at ("" for the
// in-process transport).
func (w *World) Addr() string { return w.t.Addr() }

// Shutdown releases the world's transport after the job completes: the
// orchestrator of a multi-process world reaps its rank processes
// (killing stragglers after a grace period), a joined rank announces a
// clean goodbye. In-process worlds need no shutdown. Idempotent.
func (w *World) Shutdown() error {
	w.shutOnce.Do(func() { w.shutErr = w.t.Shutdown() })
	return w.shutErr
}

// ChildPID returns the OS process ID of the spawned process hosting rank
// id, or -1 when that rank was not spawned by this process (in-process
// worlds, externally launched ranks, the orchestrator itself). Chaos
// tests use it to kill a live rank mid-run.
func (w *World) ChildPID(id int) int {
	if t, ok := w.t.(*socketTransport); ok {
		return t.childPID(id)
	}
	return -1
}

// Rank returns the handle for rank id. It panics on an out-of-range id.
func (w *World) Rank(id int) *Rank {
	if id < 0 || id >= w.size {
		panic(invariantf("mpi: Rank(%d) out of range [0,%d)", id, w.size))
	}
	return &w.ranks[id]
}

// invariantError is the panic payload for mpi-internal invariant
// violations. Run re-panics these instead of converting them to per-rank
// errors: a broken runtime must never be masked as an application fault.
type invariantError string

// Error implements the error interface.
func (e invariantError) Error() string { return string(e) }

func invariantf(format string, args ...any) invariantError {
	return invariantError(fmt.Sprintf(format, args...))
}

// PanicAbortCode is the abort code used when a rank's work function
// panics under Run.
const PanicAbortCode = 1

// Aborted reports whether Abort has been called.
func (w *World) Aborted() bool {
	select {
	case <-w.abortCh:
		return true
	default:
		return false
	}
}

// AbortCode returns the code passed to the first Abort call, or 0.
func (w *World) AbortCode() int {
	if w.Aborted() {
		return w.abortCode
	}
	return 0
}

// Run executes f concurrently on every rank this process hosts and
// returns the per-rank results once all have finished — every rank
// in-process, exactly one in a multi-process world (the others' slots
// stay nil in their own processes).
//
// A panic in f is recovered and converted into that rank's error plus an
// Abort(PanicAbortCode), mirroring real MPI job teardown: one crashing
// rank must not take the whole process down with its siblings' state
// undumped. Panics raised by the mpi runtime itself (invariant failures)
// are re-panicked.
func (w *World) Run(f func(r *Rank) error) []error {
	errs := make([]error, w.size)
	runOne := func(id int) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if inv, ok := rec.(invariantError); ok {
				panic(inv)
			}
			errs[id] = fmt.Errorf("mpi: rank %d panicked: %v", id, rec)
			w.abort(PanicAbortCode)
		}()
		errs[id] = f(w.Rank(id))
	}
	if w.local >= 0 {
		runOne(w.local)
		return errs
	}
	var wg sync.WaitGroup
	for i := 0; i < w.size; i++ {
		wg.Add(1)
		go func(id int) {
			runOne(id)
			// Not deferred: a re-panicking rank must not release Wait,
			// or Run could return (and the process exit cleanly) before
			// the invariant panic takes the process down.
			wg.Done()
		}(i)
	}
	wg.Wait()
	return errs
}

// abort records the code, releases every local waiter and fans the abort
// out through the transport. Remote aborts arrive back here through the
// transport's reader, so the once guard is what stops the echo.
func (w *World) abort(code int) {
	w.abortOnce.Do(func() {
		w.abortCode = code
		close(w.abortCh)
		w.t.Abort(code)
	})
}

// Status describes a matched message.
type Status struct {
	Source int
	Tag    int
	Len    int
}

// Rank is one process's handle onto the world. A Rank's methods are safe to
// call from the single goroutine acting as that rank; distinct Ranks may be
// used concurrently.
type Rank struct {
	w  *World
	id int
}

// ID returns this rank's number (0-based).
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return r.w.size }

// World returns the world this rank belongs to.
func (r *Rank) World() *World { return r.w }

// Wtime returns this rank's wallclock reading in seconds (MPI_Wtime).
func (r *Rank) Wtime() float64 { return r.w.clocks[r.id].Now() }

// Clock exposes the rank's clock source, used by the logging layer.
func (r *Rank) Clock() clock.Source { return r.w.clocks[r.id] }

// Abort terminates the whole world (MPI_Abort): every blocked operation on
// every rank fails with ErrAborted and all buffered traffic is lost.
func (r *Rank) Abort(code int) { r.w.abort(code) }

// Send transmits data to rank dst with the given tag in the user context.
// Sends up to the world's eager limit buffer and return immediately; larger
// sends block until the receiver has matched the message (rendezvous).
func (r *Rank) Send(dst, tag int, data []byte) error {
	return r.SendCtx(CtxUser, dst, tag, data)
}

// SendCtx is Send in an explicit message context.
func (r *Rank) SendCtx(ctx, dst, tag int, data []byte) error {
	if err := r.checkPeer(dst); err != nil {
		return err
	}
	if tag < 0 {
		return fmt.Errorf("mpi: send with negative tag %d", tag)
	}
	if ctx < 0 || ctx >= numCtx {
		return fmt.Errorf("mpi: send in invalid context %d", ctx)
	}
	if r.w.Aborted() {
		return ErrAborted
	}
	// Metrics gate hoisted once; the time reads happen only when a
	// collector is attached, keeping the disabled path free of them.
	mx := r.w.metrics
	var t0 time.Time
	if mx != nil && ctx == CtxUser {
		t0 = time.Now()
	}
	delay, forceRdv, err := r.w.faultOp(r.id, ctx, true)
	if err != nil {
		return err
	}
	if delay > 0 {
		r.w.faultSleep(delay)
		if r.w.Aborted() {
			return ErrAborted
		}
	}
	env := &Envelope{Ctx: ctx, Src: r.id, Tag: tag, Data: cloneBytes(data)}
	rendezvous := r.w.eagerLimit < 0 || len(data) > r.w.eagerLimit || forceRdv
	if rendezvous {
		env.Done = make(chan struct{})
	}
	if !r.w.t.Put(dst, env) {
		return ErrAborted
	}
	if rendezvous {
		select {
		case <-env.Done:
		case <-r.w.abortCh:
			return ErrAborted
		}
	}
	if ctx == CtxUser {
		r.w.sent[r.id].Add(1)
		r.w.sentBytes[r.id].Add(int64(len(data)))
		// The user-context tag is the Pilot channel ID, so this one call
		// feeds both the per-rank shard and the per-channel cell with the
		// same sizes LogSend puts in the trace.
		if mx != nil {
			mx.SendObserved(r.id, tag, len(data), time.Since(t0).Nanoseconds())
		}
	}
	return nil
}

// checkRecvArgs mirrors the send-side argument validation on the receive
// side: a typo'd tag or context must come back as an error, not block
// forever waiting for a message that cannot exist.
func checkRecvArgs(op string, ctx, tag int) error {
	if tag != AnyTag && tag < 0 {
		return fmt.Errorf("mpi: %s with invalid tag %d", op, tag)
	}
	if ctx < 0 || ctx >= numCtx {
		return fmt.Errorf("mpi: %s in invalid context %d", op, ctx)
	}
	return nil
}

// Recv blocks until a message matching (src, tag) in the user context
// arrives, removes it, and returns it. src may be AnySource and tag AnyTag.
func (r *Rank) Recv(src, tag int) (Message, error) {
	return r.RecvCtx(CtxUser, src, tag)
}

// RecvCtx is Recv in an explicit message context.
func (r *Rank) RecvCtx(ctx, src, tag int) (Message, error) {
	if err := r.checkWildPeer(src); err != nil {
		return Message{}, err
	}
	if err := checkRecvArgs("receive", ctx, tag); err != nil {
		return Message{}, err
	}
	mx := r.w.metrics
	var t0 time.Time
	if mx != nil && ctx == CtxUser {
		t0 = time.Now()
	}
	if _, _, err := r.w.faultOp(r.id, ctx, false); err != nil {
		return Message{}, err
	}
	env, ok := r.w.t.Take(r.id, ctx, src, tag)
	if !ok {
		return Message{}, ErrAborted
	}
	if env.Done != nil {
		close(env.Done)
	}
	if ctx == CtxUser {
		r.w.recvd[r.id].Add(1)
		r.w.recvdBytes[r.id].Add(int64(len(env.Data)))
		// env.Tag, not the argument: a wildcard receive charges the
		// channel that actually delivered.
		if mx != nil {
			mx.RecvObserved(r.id, env.Tag, len(env.Data), time.Since(t0).Nanoseconds())
		}
	}
	return Message{
		Status: Status{Source: env.Src, Tag: env.Tag, Len: len(env.Data)},
		Data:   env.Data,
	}, nil
}

// Message is a received payload plus its matching metadata.
type Message struct {
	Status
	Data []byte
}

// Iprobe reports whether a message matching (src, tag) in the user context
// is immediately available, and its status if so.
func (r *Rank) Iprobe(src, tag int) (Status, bool, error) {
	return r.IprobeCtx(CtxUser, src, tag)
}

// IprobeCtx is Iprobe in an explicit message context.
func (r *Rank) IprobeCtx(ctx, src, tag int) (Status, bool, error) {
	if err := r.checkWildPeer(src); err != nil {
		return Status{}, false, err
	}
	if err := checkRecvArgs("probe", ctx, tag); err != nil {
		return Status{}, false, err
	}
	if r.w.Aborted() {
		return Status{}, false, ErrAborted
	}
	if err := r.w.crashedErr(r.id, ctx); err != nil {
		return Status{}, false, err
	}
	st, ok := r.w.t.Probe(r.id, ctx, src, tag)
	return st, ok, nil
}

// Barrier blocks until every rank in the world has entered it. Barriers
// count as collective operations for fault injection.
func (r *Rank) Barrier() error {
	if _, _, err := r.w.faultOp(r.id, CtxColl, false); err != nil {
		return err
	}
	mx := r.w.metrics
	var t0 time.Time
	if mx != nil {
		t0 = time.Now()
	}
	if err := r.w.t.Barrier(r.id); err != nil {
		return err
	}
	if mx != nil {
		mx.BarrierWait(r.id, time.Since(t0).Nanoseconds())
	}
	return nil
}

func (r *Rank) checkPeer(p int) error {
	if p < 0 || p >= r.w.size {
		return fmt.Errorf("mpi: rank %d out of range [0,%d)", p, r.w.size)
	}
	return nil
}

func (r *Rank) checkWildPeer(p int) error {
	if p == AnySource {
		return nil
	}
	return r.checkPeer(p)
}

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// mailbox is a per-rank queue of in-flight messages with matched receives.
// Queue order is arrival order, which yields MPI's non-overtaking guarantee
// for any fixed (context, source, tag).
//
// A blocked take registers a waiter carrying its match pattern instead of
// sleeping on a shared condition variable. put checks each new envelope
// against the registered patterns — O(waiters), which is O(1) in practice
// since only the owning rank receives — and hands it directly to the
// first matching one. Waking every blocked caller to rescan the whole
// queue on every arrival would be an O(n²) thundering herd under an
// unmatched backlog (see BenchmarkMailboxBacklog).
type mailbox struct {
	mu      sync.Mutex
	queue   []*Envelope
	waiters []*waiter
	closed  bool
}

// waiter is one blocked take. ready is buffered so put never blocks
// delivering; close(ready) signals world abort.
type waiter struct {
	ctx, src, tag int
	ready         chan *Envelope
}

// waiterPool recycles the waiters that were handed their envelope; one
// whose channel an abort closed is dropped.
var waiterPool = sync.Pool{New: func() any { return &waiter{ready: make(chan *Envelope, 1)} }}

func newMailbox() *mailbox {
	return &mailbox{}
}

func (b *mailbox) put(env *Envelope) bool {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return false
	}
	// The first matching waiter gets the envelope (FIFO among waiters,
	// preserving non-overtaking order: a registered waiter found no
	// earlier match when it scanned the queue).
	for i, w := range b.waiters {
		if match(env, w.ctx, w.src, w.tag) {
			b.waiters = slices.Delete(b.waiters, i, i+1)
			w.ready <- env
			b.mu.Unlock()
			return true
		}
	}
	b.queue = append(b.queue, env)
	b.mu.Unlock()
	return true
}

func match(env *Envelope, ctx, src, tag int) bool {
	return env.Ctx == ctx &&
		(src == AnySource || env.Src == src) &&
		(tag == AnyTag || env.Tag == tag)
}

// take removes and returns the first matching message, blocking until one
// arrives. ok=false means the world aborted.
func (b *mailbox) take(ctx, src, tag int) (*Envelope, bool) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, false
	}
	for i, env := range b.queue {
		if match(env, ctx, src, tag) {
			// Delete clears the vacated tail slot, so the consumed
			// envelope's payload is not pinned until the slot is reused.
			b.queue = slices.Delete(b.queue, i, i+1)
			b.mu.Unlock()
			return env, true
		}
	}
	w := waiterPool.Get().(*waiter)
	w.ctx, w.src, w.tag = ctx, src, tag
	b.waiters = append(b.waiters, w)
	b.mu.Unlock()
	env, ok := <-w.ready
	if !ok {
		return nil, false
	}
	waiterPool.Put(w)
	return env, true
}

// probe reports the status of the first matching message without
// removing it; ok=false means none is queued (or the world aborted).
func (b *mailbox) probe(ctx, src, tag int) (Status, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return Status{}, false
	}
	for _, env := range b.queue {
		if match(env, ctx, src, tag) {
			return Status{Source: env.Src, Tag: env.Tag, Len: len(env.Data)}, true
		}
	}
	return Status{}, false
}

func (b *mailbox) close() {
	b.mu.Lock()
	b.closed = true
	for _, w := range b.waiters {
		close(w.ready)
	}
	b.waiters = nil
	b.mu.Unlock()
}
