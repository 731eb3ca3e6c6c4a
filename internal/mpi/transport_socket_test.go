package mpi

// Socket transport tests that keep every rank inside this test process:
// the orchestrator listens with NoSpawn and the other ranks join over the
// unix socket from their own goroutines. One address space puts the
// join/orchestrate/routing paths under the race detector and the coverage
// profile; the spawned-process paths are exercised by the transport
// conformance tests.

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
)

// socketWorlds starts an n-rank socket world in-process, one World per
// rank, and registers a cleanup that shuts the ranks down children-first
// (so the orchestrator's readers drain instead of waiting out the grace
// period).
func socketWorlds(t *testing.T, n int, opts Options) []*World {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "world.sock")
	worlds := make([]*World, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		o := opts
		o.Transport = TransportSocket
		if rank == 0 {
			o.ListenAddr = sock
			o.NoSpawn = true
		} else {
			o.JoinAddr = "unix:" + sock
			o.JoinRank = rank
		}
		wg.Add(1)
		go func(rank int, o Options) {
			defer wg.Done()
			worlds[rank], errs[rank] = Start(n, o)
		}(rank, o)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d start: %v", rank, err)
		}
	}
	t.Cleanup(func() {
		for rank := n - 1; rank >= 0; rank-- {
			worlds[rank].Shutdown()
		}
	})
	return worlds
}

// runSocketRanks runs f as each world's local rank concurrently and
// returns the per-rank errors.
func runSocketRanks(t *testing.T, worlds []*World, f func(r *Rank) error) []error {
	t.Helper()
	out := make([]error, len(worlds))
	var wg sync.WaitGroup
	for rank, w := range worlds {
		wg.Add(1)
		go func(rank int, w *World) {
			defer wg.Done()
			out[rank] = w.Run(f)[rank]
		}(rank, w)
	}
	wg.Wait()
	return out
}

// Point-to-point over the wire: child-to-hub delivery, hub-relayed
// child-to-child delivery, wildcard matching, probe and iprobe, and a
// full barrier.
func TestSocketWorldBasics(t *testing.T) {
	worlds := socketWorlds(t, 3, Options{})
	if addr := worlds[0].Addr(); addr == "" {
		t.Error("orchestrator Addr() is empty")
	}
	errs := runSocketRanks(t, worlds, func(r *Rank) error {
		switch r.ID() {
		case 0:
			st, err := r.Probe(1, 7)
			if err != nil {
				return err
			}
			if st.Source != 1 || st.Tag != 7 || st.Len != 7 {
				return fmt.Errorf("probe status %+v", st)
			}
			m, err := r.Recv(st.Source, st.Tag)
			if err != nil {
				return err
			}
			if string(m.Data) != "to-zero" {
				return fmt.Errorf("got %q, want %q", m.Data, "to-zero")
			}
			if _, ok, err := r.Iprobe(AnySource, AnyTag); err != nil || ok {
				return fmt.Errorf("iprobe after drain: ok=%v err=%v", ok, err)
			}
		case 1:
			if err := r.Send(0, 7, []byte("to-zero")); err != nil {
				return err
			}
			if err := r.Send(2, 9, []byte("relayed")); err != nil {
				return err
			}
		case 2:
			m, err := r.Recv(AnySource, AnyTag)
			if err != nil {
				return err
			}
			if m.Source != 1 || m.Tag != 9 || string(m.Data) != "relayed" {
				return fmt.Errorf("relay delivered %+v %q", m.Status, m.Data)
			}
		}
		return r.Barrier()
	})
	for rank, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
	}
}

// Rendezvous semantics must survive the wire: a forced-rendezvous send
// may not return before the receiver has matched the message.
func TestSocketWorldRendezvous(t *testing.T) {
	worlds := socketWorlds(t, 2, Options{EagerLimit: -1})
	var matched atomic.Bool
	errs := runSocketRanks(t, worlds, func(r *Rank) error {
		if r.ID() == 0 {
			if err := r.Send(1, 1, []byte("rendezvous")); err != nil {
				return err
			}
			if !matched.Load() {
				return errors.New("rendezvous send returned before the receive matched")
			}
			return nil
		}
		r.Sleep(50 * time.Millisecond)
		matched.Store(true)
		m, err := r.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(m.Data) != "rendezvous" {
			return fmt.Errorf("got %q", m.Data)
		}
		return nil
	})
	for rank, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
	}
}

// Collectives are built on SendCtx/RecvCtx, so they must work unchanged
// over the socket transport.
func TestSocketWorldCollectives(t *testing.T) {
	worlds := socketWorlds(t, 3, Options{})
	errs := runSocketRanks(t, worlds, func(r *Rank) error {
		got, err := r.Bcast(0, []byte("seed"))
		if err != nil {
			return err
		}
		if string(got) != "seed" {
			return fmt.Errorf("bcast delivered %q", got)
		}
		all, err := r.Gather(0, []byte{byte('a' + r.ID())})
		if err != nil {
			return err
		}
		if r.ID() == 0 {
			joined := ""
			for _, part := range all {
				joined += string(part)
			}
			if joined != "abc" {
				return fmt.Errorf("gather assembled %q", joined)
			}
		}
		return nil
	})
	for rank, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
	}
}

// An abort raised by any rank must fan out: every blocked operation on
// every rank fails with ErrAborted and every World records the code.
func TestSocketWorldAbortFanOut(t *testing.T) {
	worlds := socketWorlds(t, 3, Options{})
	errs := runSocketRanks(t, worlds, func(r *Rank) error {
		switch r.ID() {
		case 1:
			r.Sleep(30 * time.Millisecond)
			r.Abort(42)
			return nil
		default:
			_, err := r.Recv((r.ID()+2)%3, 1) // blocks until the abort lands
			return err
		}
	})
	if !errors.Is(errs[0], ErrAborted) || !errors.Is(errs[2], ErrAborted) {
		t.Errorf("blocked ranks returned %v / %v, want ErrAborted", errs[0], errs[2])
	}
	for rank, w := range worlds {
		if !w.Aborted() || w.AbortCode() != 42 {
			t.Errorf("world %d: aborted=%v code=%d, want code 42", rank, w.Aborted(), w.AbortCode())
		}
	}
}

// A clean goodbye carries the rank's traffic counters, so after every
// rank has shut down the orchestrator's totals are complete.
func TestSocketWorldTrafficFolding(t *testing.T) {
	worlds := socketWorlds(t, 3, Options{})
	errs := runSocketRanks(t, worlds, func(r *Rank) error {
		payload := []byte("0123456789")
		switch r.ID() {
		case 0:
			for got := 0; got < 5; got++ {
				if _, err := r.Recv(AnySource, AnyTag); err != nil {
					return err
				}
			}
		case 1:
			for i := 0; i < 3; i++ {
				if err := r.Send(0, 1, payload); err != nil {
					return err
				}
			}
		case 2:
			for i := 0; i < 2; i++ {
				if err := r.Send(0, 2, payload); err != nil {
					return err
				}
			}
		}
		return nil
	})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	// Goodbyes first, then the orchestrator waits out its readers — after
	// which the remote counters must have been folded in.
	for rank := 2; rank >= 0; rank-- {
		if err := worlds[rank].Shutdown(); err != nil {
			t.Fatalf("rank %d shutdown: %v", rank, err)
		}
	}
	tot := worlds[0].TotalTraffic()
	if tot.Sent != 5 || tot.SentBytes != 50 || tot.Received != 5 || tot.RecvBytes != 50 {
		t.Errorf("TotalTraffic = %+v, want 5 msgs / 50 bytes each way", tot)
	}
	if tr := worlds[0].Traffic(1); tr.Sent != 3 || tr.SentBytes != 30 {
		t.Errorf("Traffic(1) = %+v, want 3 sends / 30 bytes folded from the BYE", tr)
	}
}

// A connection that drops without a BYE is a lost rank: the hub must
// abort the world with FaultAbortCode — the same code an injected crash
// uses, so the layers above fall back to spill salvage identically.
func TestSocketWorldLostRankAborts(t *testing.T) {
	worlds := socketWorlds(t, 2, Options{})
	done := make(chan error, 1)
	go func() {
		_, err := worlds[0].Rank(0).Recv(1, 1)
		done <- err
	}()
	// Sever rank 1's connection without a goodbye: a crash, as the hub
	// sees it. Marking the rank closing first keeps its recovery path from
	// dialing back, so the hub's reconnect window must expire.
	st := worlds[1].t.(*socketTransport)
	st.closing.Store(true)
	st.hub.close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("recv after lost rank: %v, want ErrAborted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lost rank did not abort the world")
	}
	if code := worlds[0].AbortCode(); code != FaultAbortCode {
		t.Fatalf("abort code %d, want FaultAbortCode %d", code, FaultAbortCode)
	}
}

// A link failure between a rank and the hub must heal transparently: the
// rank dials back, both sides retransmit their unacked windows, and the
// program's sends, receives and barriers complete as if nothing happened.
func TestSocketWorldReconnectHeals(t *testing.T) {
	mx := stats.New(2)
	worlds := socketWorlds(t, 2, Options{Metrics: mx})
	// Kill the rank's end of the link out from under it.
	worlds[1].t.(*socketTransport).hub.fail()
	errs := runSocketRanks(t, worlds, func(r *Rank) error {
		if r.ID() == 0 {
			if err := r.Send(1, 1, []byte("after-failure")); err != nil {
				return err
			}
		} else {
			m, err := r.Recv(0, 1)
			if err != nil {
				return err
			}
			if string(m.Data) != "after-failure" {
				return fmt.Errorf("delivered %q", m.Data)
			}
		}
		return r.Barrier()
	})
	for rank, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
	}
	if worlds[0].Aborted() {
		t.Fatalf("world aborted (code %d) instead of healing", worlds[0].AbortCode())
	}
	if tot := mx.Snapshot().Totals; tot["reconnects"] == 0 {
		t.Errorf("counters %v: link failure did not register a reconnect", tot)
	}
}

// Regression: a barrier RELEASE hitting a down link used to be dropped
// best-effort, leaving the released rank parked forever. It must now be
// buffered in the window and arrive via resume.
func TestSocketWorldBarrierReleaseSurvivesLinkFailure(t *testing.T) {
	worlds := socketWorlds(t, 2, Options{})
	res := make(chan error, 1)
	go func() { res <- worlds[1].Rank(1).Barrier() }()
	// Wait until rank 1's BARRIER has landed at the hub, then sever the
	// hub's side of the link so the RELEASE has nowhere to go.
	hub := worlds[0].t.(*socketTransport)
	deadline := time.Now().Add(2 * time.Second)
	for {
		hub.barMu.Lock()
		n := hub.barCount
		hub.barMu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("rank 1 never entered the barrier")
		}
		time.Sleep(time.Millisecond)
	}
	hub.links[1].fail()
	if err := worlds[0].Rank(0).Barrier(); err != nil {
		t.Fatalf("rank 0 barrier: %v", err)
	}
	select {
	case err := <-res:
		if err != nil {
			t.Fatalf("rank 1 barrier: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rank 1 never released: RELEASE lost on the down link")
	}
	if worlds[0].Aborted() {
		t.Fatalf("world aborted (code %d) instead of healing", worlds[0].AbortCode())
	}
}

// Hostile connections to a live world's listener must be rejected
// without disturbing the ranks: wrong world size, out-of-range rank,
// first-connect epoch on the resume path, and raw garbage bytes.
func TestSocketWorldHostileResumeRejected(t *testing.T) {
	worlds := socketWorlds(t, 2, Options{})
	_, target, err := splitAddr(worlds[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	dial := func() net.Conn {
		c, err := net.Dial("unix", target)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		return c
	}
	for name, hello := range map[string]*frame{
		"world mismatch":    {typ: frHello, rank: 1, world: 99, epoch: 1},
		"rank out of range": {typ: frHello, rank: 7, world: 2, epoch: 1},
		"zero epoch":        {typ: frHello, rank: 1, world: 2, epoch: 0},
		"wrong frame type":  {typ: frBarrier, rank: 1},
	} {
		c := dial()
		if err := writeRawFrame(c, hello, time.Second); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		// The hub must close the connection without a WELCOME.
		c.SetReadDeadline(time.Now().Add(3 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err == nil {
			t.Errorf("%s: hub answered instead of closing", name)
		}
		c.Close()
	}
	// Raw garbage: an unparseable length prefix.
	c := dial()
	c.Write([]byte("not a frame at all"))
	c.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Error("garbage: hub answered instead of closing")
	}
	c.Close()

	// The world is unharmed.
	errs := runSocketRanks(t, worlds, func(r *Rank) error { return r.Barrier() })
	for rank, err := range errs {
		if err != nil {
			t.Errorf("rank %d after hostile dials: %v", rank, err)
		}
	}
}

// A joining rank built for a different world size must fail the
// orchestrator's Start with a diagnosis, not wedge it.
func TestSocketWorldHelloWorldMismatch(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "world.sock")
	startErr := make(chan error, 1)
	go func() {
		w, err := Start(2, Options{Transport: TransportSocket, ListenAddr: sock, NoSpawn: true})
		if err == nil {
			w.Shutdown()
		}
		startErr <- err
	}()
	var conn net.Conn
	deadline := time.Now().Add(5 * time.Second)
	for {
		var err error
		conn, err = net.Dial("unix", sock)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("orchestrator never listened: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	defer conn.Close()
	if err := writeRawFrame(conn, &frame{typ: frHello, rank: 1, world: 5}, time.Second); err != nil {
		t.Fatalf("hello: %v", err)
	}
	select {
	case err := <-startErr:
		if err == nil || !strings.Contains(err.Error(), "world size") {
			t.Fatalf("Start err = %v, want world-size diagnosis", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("orchestrator hung on the mismatched hello")
	}
}

// The reconnect window is tunable through PILOT_MPI_RECONNECT_WINDOW;
// malformed or non-positive values fall back to the default.
func TestLoadSockTuningEnv(t *testing.T) {
	for _, c := range []struct {
		env  string
		want time.Duration
	}{
		{"7s", 7 * time.Second},
		{"1ns", time.Nanosecond},
		{"nonsense", reconnectWindow},
		{"-5s", reconnectWindow},
		{"", reconnectWindow},
	} {
		t.Setenv("PILOT_MPI_RECONNECT_WINDOW", c.env)
		if got := loadReconnectWindow(); got != c.want {
			t.Errorf("PILOT_MPI_RECONNECT_WINDOW=%q: window %v, want %v", c.env, got, c.want)
		}
	}
}
