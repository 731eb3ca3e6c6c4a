// The multi-process socket transport: every rank is its own OS process,
// connected hub-and-spoke to the orchestrator (the process hosting rank
// 0), which listens, spawns the other ranks, routes their envelopes, runs
// the barrier, and fans aborts out.
//
// Topology. A star rather than a full mesh keeps connection count linear
// and gives the world exactly one place that knows everything: rank 0,
// which is also where MPE's Finish merge and the Pilot main process
// already live. Rank-to-rank traffic relays through the hub — two hops,
// but each frame is routed by a single goroutine doing a map-free slice
// index, and the paper's workloads are master/worker shaped around rank 0
// anyway.
//
// Delivery. Each process drains its connection eagerly into the local
// in-memory mailbox (the same mailbox the in-process transport uses), so
// the wire never blocks on an unmatched receive and the non-overtaking
// guarantee reduces to per-connection FIFO plus single-goroutine routing.
// Rendezvous sends travel as ordinary frames carrying a sequence number;
// the receiving process acks when its Rank actually matches the message
// (closing Envelope.Done closes the loop), so blocking semantics are
// preserved end-to-end without a second round trip for eager traffic.
//
// Failure. Connections are wireLinks (wirelink.go): CRC-checked,
// sequence-numbered, heartbeat-monitored and resumable. A broken
// connection gets one reconnect window — the rank dials back with a
// resume HELLO, both sides retransmit their unacked windows, and the
// program never notices. A rank that stays gone past the window (a
// crashed process, an exhausted reconnect budget) is a lost rank: the
// transport aborts the world with FaultAbortCode, exactly as an injected
// crash would, and the layers above fall back to salvaging the dead
// rank's spill segments (clog2.SegVersion 3). Every failure mode lands in one of those
// two buckets — transparent recovery or diagnosed abort — never a hang.
package mpi

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

const (
	// joinTimeout bounds spawn-to-HELLO; a rank that cannot start within
	// it fails the whole Start rather than hanging the job.
	joinTimeout = 60 * time.Second
	// dialRetry is how long a joining rank keeps retrying the hub address
	// (covers externally launched ranks racing the listener).
	dialRetry = 10 * time.Second
	// shutdownGrace is how long Shutdown waits for rank processes to exit
	// on their own before killing them.
	shutdownGrace = 10 * time.Second
	// heartbeatInterval is how often each link end sends a PING.
	heartbeatInterval = 500 * time.Millisecond
	// livenessTimeout declares a link dead when nothing — payload or
	// heartbeat — has arrived for this long.
	livenessTimeout = 10 * time.Second
	// wireWriteTimeout bounds every steady-state frame write, so a
	// stalled peer becomes a link failure instead of a wedged writer.
	wireWriteTimeout = 10 * time.Second
	// reconnectWindow is how long each side gives a broken link to
	// resume before treating the peer as lost.
	reconnectWindow = 2 * time.Second
	// resumeHelloTimeout bounds the resume handshake on one accepted
	// connection, so a hostile dial cannot wedge the accept loop.
	resumeHelloTimeout = 5 * time.Second
	// byeDrainTimeout is how long a rank's Shutdown waits for its
	// goodbye (and anything queued before it) to be acked.
	byeDrainTimeout = 2 * time.Second
)

// loadReconnectWindow returns reconnectWindow, or the
// PILOT_MPI_RECONNECT_WINDOW override (Go duration syntax) when it parses
// to a positive duration. The environment is inherited by spawned rank
// processes, so one setting covers the world.
func loadReconnectWindow() time.Duration {
	if p, err := time.ParseDuration(os.Getenv("PILOT_MPI_RECONNECT_WINDOW")); err == nil && p > 0 {
		return p
	}
	return reconnectWindow
}

type socketTransport struct {
	w         *World
	size      int
	local     int
	network   string // "unix" or "tcp"
	addr      string // join form: "unix:<path>" or "tcp:<host:port>"
	box       *mailbox
	reconnect time.Duration
	wf        *wireFaults

	// Rendezvous bookkeeping: outbound seq → the sender's Done channel,
	// closed when the matching ACK comes back.
	seq   atomic.Uint64
	ackMu sync.Mutex
	acks  map[uint64]chan struct{}

	teardown sync.Once
	closing  atomic.Bool
	hbStop   chan struct{}
	hbOnce   sync.Once

	// barCh delivers this process's barrier release; buffered one deep —
	// a rank has at most one barrier outstanding.
	barCh chan struct{}

	// Orchestrator state (rank 0 only).
	ln         net.Listener
	links      []*wireLink // by rank; nil for rank 0
	resumed    []chan struct{}
	cmds       []*exec.Cmd // by rank; nil when not spawned by us
	readerDone []chan struct{}
	acceptDone chan struct{}
	byed       []atomic.Bool
	barMu      sync.Mutex
	barCount   int
	sockDir    string // temp dir holding the unix socket, removed on Shutdown

	// Rank state (non-zero ranks).
	hub *wireLink
}

func newSocketTransport(w *World, n int, opts Options) (*socketTransport, error) {
	network := "unix"
	if opts.Transport == TransportTCP {
		network = "tcp"
	}
	t := &socketTransport{
		w:         w,
		size:      n,
		network:   network,
		box:       newMailbox(),
		reconnect: loadReconnectWindow(),
		acks:      map[uint64]chan struct{}{},
		barCh:     make(chan struct{}, 1),
	}
	if addr, rank, ok := joinTarget(opts); ok {
		if rank < 1 || rank >= n {
			return nil, fmt.Errorf("mpi: joining rank %d out of range [1,%d)", rank, n)
		}
		t.local = rank
		t.wf = newWireFaults(w.faults, w.metrics, rank)
		return t, t.join(addr, rank)
	}
	t.local = 0
	t.wf = newWireFaults(w.faults, w.metrics, 0)
	return t, t.orchestrate(opts)
}

// joinTarget decides whether this process joins an existing world and at
// which address/rank: an explicit Options.JoinAddr wins, else the
// PILOT_MPI_* environment a spawning orchestrator set. The environment
// variables are consumed (unset) so a joined rank that itself creates a
// nested world does not accidentally re-join its parent's.
func joinTarget(opts Options) (addr string, rank int, ok bool) {
	if opts.JoinAddr != "" {
		return opts.JoinAddr, opts.JoinRank, true
	}
	if !Spawned() {
		return "", 0, false
	}
	addr = os.Getenv(EnvAddr)
	rank, err := strconv.Atoi(os.Getenv(EnvRank))
	if err != nil {
		return "", 0, false
	}
	os.Unsetenv(EnvAddr)
	os.Unsetenv(EnvRank)
	os.Unsetenv(EnvWorld)
	return addr, rank, true
}

func splitAddr(addr string) (network, target string, err error) {
	switch {
	case strings.HasPrefix(addr, "unix:"):
		return "unix", addr[len("unix:"):], nil
	case strings.HasPrefix(addr, "tcp:"):
		return "tcp", addr[len("tcp:"):], nil
	default:
		return "", "", fmt.Errorf("mpi: join address %q (want unix:<path> or tcp:<host:port>)", addr)
	}
}

// backoffSleep sleeps a jittered backoff and doubles it up to cap. The
// jitter decorrelates many ranks retrying the same hub; it carries no
// determinism obligation (fault decisions never draw from it).
func backoffSleep(backoff *time.Duration, cap time.Duration) {
	d := *backoff/2 + time.Duration(rand.Int63n(int64(*backoff/2)+1))
	time.Sleep(d)
	if *backoff < cap {
		*backoff *= 2
	}
}

// join connects this process to the hub as the given rank: a dial loop
// with exponential backoff (a tight retry loop would hammer a slow CI
// machine exactly when it is least able to cope), then the
// HELLO/WELCOME handshake.
func (t *socketTransport) join(addr string, rank int) error {
	network, target, err := splitAddr(addr)
	if err != nil {
		return err
	}
	t.network = network
	t.addr = addr
	var conn net.Conn
	deadline := time.Now().Add(dialRetry)
	backoff := 10 * time.Millisecond
	for {
		conn, err = net.DialTimeout(network, target, time.Second)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("mpi: rank %d cannot reach hub at %s: %w", rank, addr, err)
		}
		backoffSleep(&backoff, 500*time.Millisecond)
	}
	r := bufio.NewReader(conn)
	err = writeRawFrame(conn, &frame{typ: frHello, rank: rank, world: t.size}, wireWriteTimeout)
	if err == nil {
		var welcome *frame
		welcome, err = readRawFrame(conn, r, joinTimeout)
		if err == nil && welcome.typ != frWelcome {
			err = fmt.Errorf("frame type %d", welcome.typ)
		}
	}
	if err != nil {
		conn.Close()
		return fmt.Errorf("mpi: rank %d handshake: %w", rank, err)
	}
	t.hub = newWireLink(conn, r, t.w.metrics, rank, rank, wireSideRank, t.wf, wireWriteTimeout)
	return nil
}

// orchestrate makes this process rank 0: listen, spawn the other ranks
// (unless Options.NoSpawn) and collect their HELLOs.
func (t *socketTransport) orchestrate(opts Options) error {
	target := opts.ListenAddr
	if t.network == "unix" && target == "" {
		dir, err := os.MkdirTemp("", "pilot-mpi-")
		if err != nil {
			return fmt.Errorf("mpi: socket dir: %w", err)
		}
		t.sockDir = dir
		target = filepath.Join(dir, "world.sock")
	}
	if t.network == "tcp" && target == "" {
		target = "127.0.0.1:0"
	}
	ln, err := net.Listen(t.network, target)
	if err != nil {
		t.cleanupDir()
		return fmt.Errorf("mpi: listen %s %s: %w", t.network, target, err)
	}
	t.ln = ln
	if t.network == "tcp" {
		target = ln.Addr().String()
	}
	t.addr = t.network + ":" + target
	t.links = make([]*wireLink, t.size)
	t.resumed = make([]chan struct{}, t.size)
	t.cmds = make([]*exec.Cmd, t.size)
	t.readerDone = make([]chan struct{}, t.size)
	t.byed = make([]atomic.Bool, t.size)
	for rank := 1; rank < t.size; rank++ {
		t.resumed[rank] = make(chan struct{}, 1)
	}

	fail := func(err error) error {
		for _, cmd := range t.cmds {
			if cmd != nil {
				cmd.Process.Kill()
				cmd.Wait()
			}
		}
		for _, l := range t.links {
			if l != nil {
				l.close()
			}
		}
		ln.Close()
		t.cleanupDir()
		return err
	}

	if !opts.NoSpawn {
		for rank := 1; rank < t.size; rank++ {
			cmd, err := t.spawn(rank, opts)
			if err != nil {
				return fail(fmt.Errorf("mpi: spawn rank %d: %w", rank, err))
			}
			t.cmds[rank] = cmd
		}
	}

	type deadliner interface{ SetDeadline(time.Time) error }
	if d, ok := ln.(deadliner); ok {
		d.SetDeadline(time.Now().Add(joinTimeout))
	}
	for joined := 1; joined < t.size; joined++ {
		conn, err := ln.Accept()
		if err != nil {
			return fail(fmt.Errorf("mpi: waiting for %d more ranks: %w", t.size-joined, err))
		}
		r := bufio.NewReader(conn)
		hello, err := readRawFrame(conn, r, joinTimeout)
		if err == nil && hello.typ != frHello {
			err = fmt.Errorf("frame type %d", hello.typ)
		}
		if err != nil {
			conn.Close()
			return fail(fmt.Errorf("mpi: bad handshake: %v", err))
		}
		if hello.world != t.size {
			conn.Close()
			return fail(fmt.Errorf("mpi: rank %d built for world size %d, want %d",
				hello.rank, hello.world, t.size))
		}
		if hello.rank < 1 || hello.rank >= t.size || hello.epoch != 0 || t.links[hello.rank] != nil {
			conn.Close()
			return fail(fmt.Errorf("mpi: bad or duplicate hello for rank %d", hello.rank))
		}
		if err := writeRawFrame(conn, &frame{typ: frWelcome}, wireWriteTimeout); err != nil {
			conn.Close()
			return fail(fmt.Errorf("mpi: rank %d welcome: %v", hello.rank, err))
		}
		t.links[hello.rank] = newWireLink(conn, r, t.w.metrics, 0, hello.rank, wireSideHub, t.wf, wireWriteTimeout)
	}
	if d, ok := ln.(deadliner); ok {
		d.SetDeadline(time.Time{})
	}
	return nil
}

func (t *socketTransport) cleanupDir() {
	if t.sockDir != "" {
		os.RemoveAll(t.sockDir)
	}
}

// spawn launches the process for one remote rank: the configured command
// or a re-exec of this binary, plus the PILOT_MPI_* join environment.
func (t *socketTransport) spawn(rank int, opts Options) (*exec.Cmd, error) {
	argv := opts.SpawnCommand
	if len(argv) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		argv = append([]string{exe}, os.Args[1:]...)
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), opts.SpawnEnv...)
	cmd.Env = append(cmd.Env,
		EnvRank+"="+strconv.Itoa(rank),
		EnvAddr+"="+t.addr,
		EnvWorld+"="+strconv.Itoa(t.size),
	)
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return cmd, nil
}

// startReaders launches the per-connection reader, heartbeat and (at the
// hub) resume-accept goroutines. Split from construction so the World is
// fully wired before any frame can call back into it.
func (t *socketTransport) startReaders() {
	t.hbStop = make(chan struct{})
	if t.local != 0 {
		go t.rankReader()
		go t.heartbeat(t.hub)
		return
	}
	t.acceptDone = make(chan struct{})
	go t.acceptLoop()
	for rank, l := range t.links {
		if l == nil {
			continue
		}
		t.readerDone[rank] = make(chan struct{})
		go t.hubReader(rank, l)
		go t.heartbeat(l)
	}
}

// heartbeat keeps one link's liveness clock honest: a PING every
// interval (the peer answers PONG, which also carries its cumulative
// ack) and a liveness check that declares the link dead when nothing —
// heartbeat or payload — has arrived within the timeout. "EOF is the
// only death signal" becomes "silence is a death signal too".
func (t *socketTransport) heartbeat(l *wireLink) {
	tick := time.NewTicker(heartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
		case <-t.hbStop:
			return
		case <-t.w.abortCh:
			return
		}
		if t.closing.Load() || l.isDown() {
			continue // a down link is the recovery path's problem
		}
		if l.sinceRead() > livenessTimeout {
			l.fail() // wakes the blocked reader into recovery
			continue
		}
		if l.send(&frame{typ: frPing}) == nil {
			t.w.metrics.WireCounted(t.local, stats.CtrHeartbeats, 1)
		}
	}
}

// expectedEOF reports whether a connection ending now is normal rather
// than a lost rank.
func (t *socketTransport) expectedEOF() bool {
	return t.closing.Load() || t.w.Aborted()
}

// acceptLoop accepts post-join connections: resume dials from ranks
// whose link broke. It exits when the listener closes at Shutdown.
func (t *socketTransport) acceptLoop() {
	defer close(t.acceptDone)
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		go t.handleResume(conn)
	}
}

// handleResume vets one resume dial: a CRC-framed HELLO with a known
// rank, the right world size and a fresh epoch, all within a deadline —
// anything else is closed without touching the live links, so a hostile
// or stale connection can never wedge the world.
func (t *socketTransport) handleResume(conn net.Conn) {
	r := bufio.NewReader(conn)
	hello, err := readRawFrame(conn, r, resumeHelloTimeout)
	if err != nil || hello.typ != frHello || hello.world != t.size ||
		hello.rank < 1 || hello.rank >= t.size || hello.epoch == 0 ||
		t.links[hello.rank] == nil || t.byed[hello.rank].Load() || t.expectedEOF() {
		conn.Close()
		return
	}
	l := t.links[hello.rank]
	welcome := &frame{typ: frWelcome, epoch: hello.epoch, ack: l.recvSeq.Load()}
	if writeRawFrame(conn, welcome, wireWriteTimeout) != nil {
		conn.Close()
		return
	}
	if l.resume(conn, r, hello.ack, uint32(hello.epoch), true) != nil {
		conn.Close()
		return
	}
	select {
	case t.resumed[hello.rank] <- struct{}{}:
	default:
	}
}

// hubReader drains one rank's link at the orchestrator: local deliveries
// go to the mailbox, everything else is routed. A broken link gets one
// reconnect window to resume before the rank is declared lost.
func (t *socketTransport) hubReader(rank int, l *wireLink) {
	defer close(t.readerDone[rank])
	for {
		fr, err := l.recv()
		if err != nil {
			if t.byed[rank].Load() || t.expectedEOF() {
				return
			}
			select {
			case <-t.resumed[rank]:
				continue
			case <-time.After(t.reconnect):
				if !t.byed[rank].Load() && !t.expectedEOF() {
					// Lost rank: the process died, or its link could not
					// resume in time. Tear the job down like an injected
					// crash so salvage can run.
					t.w.abort(FaultAbortCode)
				}
				return
			case <-t.w.abortCh:
				return
			}
		}
		switch fr.typ {
		case frMsg, frAck:
			if fr.dst == 0 {
				t.deliver(fr)
				break
			}
			if fr.dst < 0 || fr.dst >= t.size || t.links[fr.dst] == nil {
				t.w.abort(FaultAbortCode)
				return
			}
			if t.byed[fr.dst].Load() {
				break // rank exited cleanly; drop like mail to a finished rank
			}
			if err := t.links[fr.dst].send(fr); err != nil && !t.byed[fr.dst].Load() && !t.expectedEOF() {
				t.w.abort(FaultAbortCode)
				return
			}
		case frBarrier:
			t.barrierEnter()
		case frAbort:
			t.w.abort(fr.code)
		case frBye:
			t.w.sent[rank].Add(fr.traffic.Sent)
			t.w.sentBytes[rank].Add(fr.traffic.SentBytes)
			t.w.recvd[rank].Add(fr.traffic.Received)
			t.w.recvdBytes[rank].Add(fr.traffic.RecvBytes)
			t.byed[rank].Store(true)
		}
	}
}

// rankReader drains the hub link at a non-zero rank, dialing the hub
// back whenever the link breaks.
func (t *socketTransport) rankReader() {
	for {
		fr, err := t.hub.recv()
		if err != nil {
			if t.expectedEOF() {
				return
			}
			if t.rankRecover() {
				continue
			}
			if !t.expectedEOF() {
				t.w.abort(FaultAbortCode)
			}
			return
		}
		switch fr.typ {
		case frMsg, frAck:
			t.deliver(fr)
		case frRelease:
			select {
			case t.barCh <- struct{}{}:
			default:
			}
		case frAbort:
			t.w.abort(fr.code)
		}
	}
}

// rankRecover dials the hub back and resumes the link within the
// reconnect window: exponential backoff between attempts, a fresh epoch
// per attempt so the hub can tell a retry from a replay. False means the
// window closed (or the world is going down) — the caller's move is then
// a diagnosed abort, never a hang.
func (t *socketTransport) rankRecover() bool {
	_, target, err := splitAddr(t.addr)
	if err != nil {
		return false
	}
	deadline := time.Now().Add(t.reconnect)
	backoff := 10 * time.Millisecond
	// Gate on Aborted, not expectedEOF: Shutdown also recovers through
	// here to flush a goodbye lost to a link failure (the reader itself
	// checks expectedEOF before calling).
	for !t.w.Aborted() {
		conn, err := net.DialTimeout(t.network, target, time.Second)
		if err == nil && t.resumeHub(conn) {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		backoffSleep(&backoff, 200*time.Millisecond)
	}
	return false
}

// resumeHub runs the resume handshake on a fresh connection: HELLO with
// the next epoch and our cumulative ack, the hub's WELCOME with its ack,
// then window prune + retransmit inside resume.
func (t *socketTransport) resumeHub(conn net.Conn) bool {
	epoch := t.hub.nextEpoch()
	hello := &frame{typ: frHello, rank: t.local, world: t.size, epoch: int(epoch), ack: t.hub.recvSeq.Load()}
	if writeRawFrame(conn, hello, wireWriteTimeout) != nil {
		conn.Close()
		return false
	}
	r := bufio.NewReader(conn)
	welcome, err := readRawFrame(conn, r, resumeHelloTimeout)
	if err != nil || welcome.typ != frWelcome {
		conn.Close()
		return false
	}
	if t.hub.resume(conn, r, welcome.ack, epoch, false) != nil {
		conn.Close()
		return false
	}
	return true
}

// deliver lands a MSG in the local mailbox (reconstructing the
// rendezvous Done/ACK linkage) or resolves an ACK.
func (t *socketTransport) deliver(fr *frame) {
	if fr.typ == frAck {
		t.ackMu.Lock()
		done := t.acks[fr.seq]
		delete(t.acks, fr.seq)
		t.ackMu.Unlock()
		if done != nil {
			close(done)
		}
		return
	}
	env := &Envelope{Ctx: fr.ctx, Src: fr.src, Tag: fr.tag, Data: fr.payload}
	if fr.flags&flagNeedAck != 0 {
		env.Done = make(chan struct{})
		src, seq := fr.src, fr.seq
		// The local Rank closes Done when it matches the message; relay
		// that release back to the blocked sender as an ACK.
		go func() {
			select {
			case <-env.Done:
				t.writeTo(src, &frame{typ: frAck, dst: src, seq: seq})
			case <-t.w.abortCh:
			}
		}()
	}
	t.box.put(env)
}

// errRankGone marks a write to a rank that already said goodbye; the
// message is dropped, matching the in-process semantics of mail to a
// finished rank sitting unread in its mailbox.
var errRankGone = fmt.Errorf("mpi: rank exited")

// writeTo sends one frame toward rank dst: directly at the hub, via the
// hub elsewhere. Link-level failures are absorbed by the window (the
// frame retransmits after resume); the errors that surface mean the
// frame can never arrive.
func (t *socketTransport) writeTo(dst int, fr *frame) error {
	if t.local != 0 {
		return t.hub.send(fr)
	}
	if dst < 1 || dst >= t.size || t.links[dst] == nil {
		return fmt.Errorf("mpi: no connection for rank %d", dst)
	}
	if t.byed[dst].Load() {
		return errRankGone
	}
	if err := t.links[dst].send(fr); err != nil {
		if t.byed[dst].Load() || t.expectedEOF() {
			return errRankGone
		}
		return err
	}
	return nil
}

func (t *socketTransport) Put(dst int, env *Envelope) bool {
	if t.w.Aborted() {
		return false
	}
	if dst == t.local {
		return t.box.put(env)
	}
	fr := &frame{typ: frMsg, dst: dst, ctx: env.Ctx, src: env.Src, tag: env.Tag, payload: env.Data}
	if env.Done != nil {
		fr.flags |= flagNeedAck
		fr.seq = t.seq.Add(1)
		t.ackMu.Lock()
		t.acks[fr.seq] = env.Done
		t.ackMu.Unlock()
	}
	if err := t.writeTo(dst, fr); err != nil {
		if env.Done != nil {
			t.ackMu.Lock()
			delete(t.acks, fr.seq)
			t.ackMu.Unlock()
		}
		if err == errRankGone {
			// Clean exit on the other side: the message is undeliverable
			// but the world is healthy. A rendezvous send to a finished
			// rank would block forever in-process too.
			return true
		}
		if !t.expectedEOF() {
			t.w.abort(FaultAbortCode)
		}
		return false
	}
	return true
}

func (t *socketTransport) Take(me, ctx, src, tag int) (*Envelope, bool) {
	t.checkLocal(me)
	return t.box.take(ctx, src, tag)
}

func (t *socketTransport) Probe(me, ctx, src, tag int) (Status, bool) {
	t.checkLocal(me)
	return t.box.probe(ctx, src, tag)
}

func (t *socketTransport) checkLocal(me int) {
	if me != t.local {
		panic(invariantf("mpi: rank %d is not hosted by this process (local rank %d)", me, t.local))
	}
}

// barrierEnter counts one rank into the barrier at the hub; the size'th
// entry releases everyone.
func (t *socketTransport) barrierEnter() {
	t.barMu.Lock()
	t.barCount++
	fire := t.barCount == t.size
	if fire {
		t.barCount = 0
	}
	t.barMu.Unlock()
	if !fire {
		return
	}
	for rank, l := range t.links {
		if l == nil {
			continue
		}
		if err := l.send(&frame{typ: frRelease}); err != nil && !t.byed[rank].Load() && !t.expectedEOF() {
			// A RELEASE that cannot even be buffered for retransmission
			// will never reach the rank, and a rank waiting on a barrier
			// that can never release is a hang. Fold it into the
			// lost-rank path instead of silently dropping it.
			t.w.abort(FaultAbortCode)
		}
	}
	select {
	case t.barCh <- struct{}{}:
	default:
	}
}

func (t *socketTransport) Barrier(me int) error {
	t.checkLocal(me)
	if t.w.Aborted() {
		return ErrAborted
	}
	if t.local == 0 {
		t.barrierEnter()
	} else if err := t.hub.send(&frame{typ: frBarrier, rank: me}); err != nil {
		if !t.expectedEOF() {
			t.w.abort(FaultAbortCode)
		}
		return ErrAborted
	}
	select {
	case <-t.barCh:
		return nil
	case <-t.w.abortCh:
		return ErrAborted
	}
}

func (t *socketTransport) Abort(code int) {
	t.teardown.Do(func() {
		t.box.close()
		fr := &frame{typ: frAbort, code: code}
		if t.hub != nil {
			t.hub.send(fr)
		}
		for _, l := range t.links {
			if l != nil {
				l.send(fr)
			}
		}
	})
}

func (t *socketTransport) Shutdown() error {
	t.closing.Store(true)
	if t.hbStop != nil {
		t.hbOnce.Do(func() { close(t.hbStop) })
	}
	if t.local != 0 {
		// Goodbye carries this rank's traffic counters so the
		// orchestrator's totals stay complete after the process is gone;
		// the drain waits for the hub's ack so the goodbye (and anything
		// queued before it) survives the close.
		t.hub.send(&frame{typ: frBye, rank: t.local, traffic: t.w.Traffic(t.local)})
		if !t.hub.drain(byeDrainTimeout) && t.hub.isDown() && !t.w.Aborted() {
			// The goodbye was lost to a link failure, and the reader that
			// would normally drive recovery has already exited (closing is
			// set). One bounded recovery attempt flushes it, with a
			// throwaway reader pumping the hub's acks; otherwise the hub
			// diagnoses this rank as lost.
			if t.rankRecover() {
				go func() {
					for {
						if _, err := t.hub.recv(); err != nil {
							return
						}
					}
				}()
				t.hub.drain(byeDrainTimeout)
			}
		}
		return t.hub.close()
	}
	deadline := time.Now().Add(shutdownGrace)
	remaining := func() time.Duration {
		d := time.Until(deadline)
		if d < 0 {
			return 0
		}
		return d
	}
	// First let each rank's reader drain to EOF (clean exits close their
	// end after BYE), then reap the processes we spawned.
	for rank := 1; rank < t.size; rank++ {
		if ch := t.readerDone[rank]; ch != nil {
			select {
			case <-ch:
			case <-time.After(remaining()):
			}
		}
	}
	var failed []string
	for rank := 1; rank < t.size; rank++ {
		cmd := t.cmds[rank]
		if cmd == nil {
			continue
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		var err error
		select {
		case err = <-done:
		case <-time.After(remaining()):
			cmd.Process.Kill()
			err = fmt.Errorf("killed after %s: %w", shutdownGrace, <-done)
		}
		if err != nil {
			failed = append(failed, fmt.Sprintf("rank %d: %v", rank, err))
		}
	}
	t.ln.Close()
	if t.acceptDone != nil {
		<-t.acceptDone
	}
	for _, l := range t.links {
		if l != nil {
			l.close()
		}
	}
	t.cleanupDir()
	if len(failed) > 0 && !t.w.Aborted() {
		return fmt.Errorf("mpi: rank processes failed: %s", strings.Join(failed, "; "))
	}
	return nil
}
