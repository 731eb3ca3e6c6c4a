package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
)

func TestNewWorldPanicsOnZeroRanks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) did not panic")
		}
	}()
	NewWorld(0, Options{})
}

func TestRankOutOfRangePanics(t *testing.T) {
	w := NewWorld(2, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("Rank(5) did not panic")
		}
	}()
	w.Rank(5)
}

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2, Options{})
	errs := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			return r.Send(1, 7, []byte("hello"))
		}
		m, err := r.Recv(0, 7)
		if err != nil {
			return err
		}
		if string(m.Data) != "hello" || m.Source != 0 || m.Tag != 7 || m.Len != 5 {
			return fmt.Errorf("bad message: %+v", m)
		}
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
}

func TestSendBufferIsCopied(t *testing.T) {
	w := NewWorld(2, Options{})
	buf := []byte("original")
	errs := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			if err := r.Send(1, 0, buf); err != nil {
				return err
			}
			copy(buf, "CLOBBER!")
			return nil
		}
		time.Sleep(10 * time.Millisecond)
		m, err := r.Recv(0, 0)
		if err != nil {
			return err
		}
		if string(m.Data) != "original" {
			return fmt.Errorf("sender mutation leaked: %q", m.Data)
		}
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
}

func TestWildcardRecv(t *testing.T) {
	w := NewWorld(3, Options{})
	errs := w.Run(func(r *Rank) error {
		switch r.ID() {
		case 0:
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				m, err := r.Recv(AnySource, AnyTag)
				if err != nil {
					return err
				}
				seen[m.Source] = true
			}
			if !seen[1] || !seen[2] {
				return fmt.Errorf("missing sources: %v", seen)
			}
			return nil
		default:
			return r.Send(0, 10+r.ID(), []byte{byte(r.ID())})
		}
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
}

func TestTagSelectivity(t *testing.T) {
	w := NewWorld(2, Options{})
	errs := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			if err := r.Send(1, 1, []byte("first")); err != nil {
				return err
			}
			return r.Send(1, 2, []byte("second"))
		}
		// Receive tag 2 first even though tag 1 arrived earlier.
		m2, err := r.Recv(0, 2)
		if err != nil {
			return err
		}
		m1, err := r.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(m2.Data) != "second" || string(m1.Data) != "first" {
			return fmt.Errorf("tag matching broken: %q %q", m2.Data, m1.Data)
		}
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
}

// Non-overtaking: messages with the same (source, tag) are received in send
// order, even through wildcard receives.
func TestNonOvertakingProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		w := NewWorld(2, Options{})
		ok := true
		w.Run(func(r *Rank) error {
			if r.ID() == 0 {
				for i := 0; i < n; i++ {
					var b [4]byte
					binary.LittleEndian.PutUint32(b[:], uint32(i))
					if err := r.Send(1, 3, b[:]); err != nil {
						return err
					}
				}
				return nil
			}
			for i := 0; i < n; i++ {
				m, err := r.Recv(AnySource, AnyTag)
				if err != nil {
					return err
				}
				if got := binary.LittleEndian.Uint32(m.Data); got != uint32(i) {
					ok = false
				}
			}
			return nil
		})
		_ = seed
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRendezvousBlocksUntilReceived(t *testing.T) {
	w := NewWorld(2, Options{EagerLimit: 4})
	sendReturned := make(chan error, 1)
	go func() {
		sendReturned <- w.Rank(0).Send(1, 0, []byte("exceeds-eager-limit"))
	}()
	select {
	case <-sendReturned:
		t.Fatal("rendezvous send returned before any receive")
	case <-time.After(30 * time.Millisecond):
	}
	if _, err := w.Rank(1).Recv(0, 0); err != nil {
		t.Fatalf("recv: %v", err)
	}
	if err := <-sendReturned; err != nil {
		t.Fatalf("send: %v", err)
	}
}

func TestEagerSendDoesNotBlock(t *testing.T) {
	w := NewWorld(2, Options{EagerLimit: 1024})
	done := make(chan error, 1)
	go func() { done <- w.Rank(0).Send(1, 0, []byte("small")) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("send: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("eager send blocked")
	}
	if _, err := w.Rank(1).Recv(0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeEagerLimitForcesRendezvous(t *testing.T) {
	w := NewWorld(2, Options{EagerLimit: -1})
	done := make(chan struct{})
	go func() {
		w.Rank(0).Send(1, 0, []byte{1})
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("1-byte send completed without receiver under forced rendezvous")
	case <-time.After(30 * time.Millisecond):
	}
	if _, err := w.Rank(1).Recv(0, 0); err != nil {
		t.Fatal(err)
	}
	<-done
}

func TestAbortUnblocksEverything(t *testing.T) {
	w := NewWorld(3, Options{})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); _, errs[0] = w.Rank(0).Recv(1, 0) }()
	go func() { defer wg.Done(); errs[1] = w.Rank(2).Barrier() }()
	time.Sleep(20 * time.Millisecond)
	w.Rank(0).Abort(42)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrAborted) {
			t.Errorf("op %d: err = %v, want ErrAborted", i, err)
		}
	}
	if !w.Aborted() || w.AbortCode() != 42 {
		t.Fatalf("Aborted=%v code=%d, want true/42", w.Aborted(), w.AbortCode())
	}
}

func TestOpsAfterAbortFail(t *testing.T) {
	w := NewWorld(2, Options{})
	w.Rank(0).Abort(1)
	if err := w.Rank(0).Send(1, 0, nil); !errors.Is(err, ErrAborted) {
		t.Fatalf("Send after abort: %v", err)
	}
	if _, err := w.Rank(1).Recv(0, 0); !errors.Is(err, ErrAborted) {
		t.Fatalf("Recv after abort: %v", err)
	}
	if _, _, err := w.Rank(1).Iprobe(0, 0); !errors.Is(err, ErrAborted) {
		t.Fatalf("Iprobe after abort: %v", err)
	}
}

func TestSendValidation(t *testing.T) {
	w := NewWorld(2, Options{})
	r := w.Rank(0)
	if err := r.Send(9, 0, nil); err == nil {
		t.Error("send to out-of-range rank succeeded")
	}
	if err := r.Send(1, -3, nil); err == nil {
		t.Error("send with negative tag succeeded")
	}
	if err := r.SendCtx(99, 1, 0, nil); err == nil {
		t.Error("send in invalid context succeeded")
	}
	if _, err := r.Recv(17, 0); err == nil {
		t.Error("recv from out-of-range rank succeeded")
	}
}

func TestIprobeAndProbe(t *testing.T) {
	w := NewWorld(2, Options{})
	r1 := w.Rank(1)
	if _, ok, err := r1.Iprobe(AnySource, AnyTag); err != nil || ok {
		t.Fatalf("Iprobe on empty box: ok=%v err=%v", ok, err)
	}
	if err := w.Rank(0).Send(1, 9, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	st, ok, err := r1.Iprobe(0, 9)
	if err != nil || !ok {
		t.Fatalf("Iprobe on a queued message: ok=%v err=%v", ok, err)
	}
	if st.Len != 3 || st.Tag != 9 || st.Source != 0 {
		t.Fatalf("probe status %+v", st)
	}
	// Iprobe must not consume.
	if _, ok, _ := r1.Iprobe(0, 9); !ok {
		t.Fatal("Iprobe consumed the message")
	}
	if _, err := r1.Recv(0, 9); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := r1.Iprobe(0, 9); ok {
		t.Fatal("message still present after recv")
	}
}

func TestContextsDoNotCross(t *testing.T) {
	w := NewWorld(2, Options{})
	if err := w.Rank(0).SendCtx(CtxColl, 1, 0, []byte("coll")); err != nil {
		t.Fatal(err)
	}
	// A user-context wildcard receive must not see collective traffic.
	if _, ok, _ := w.Rank(1).Iprobe(AnySource, AnyTag); ok {
		t.Fatal("user Iprobe matched collective-context message")
	}
	m, err := w.Rank(1).RecvCtx(CtxColl, 0, 0)
	if err != nil || string(m.Data) != "coll" {
		t.Fatalf("RecvCtx: %v %q", err, m.Data)
	}
}

func TestBarrierSynchronises(t *testing.T) {
	const n = 8
	w := NewWorld(n, Options{})
	var before, after int32
	var mu sync.Mutex
	errs := w.Run(func(r *Rank) error {
		mu.Lock()
		before++
		mu.Unlock()
		if err := r.Barrier(); err != nil {
			return err
		}
		mu.Lock()
		if before != n {
			mu.Unlock()
			return fmt.Errorf("rank %d passed barrier with only %d arrivals", r.ID(), before)
		}
		after++
		mu.Unlock()
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	if after != n {
		t.Fatalf("after = %d, want %d", after, n)
	}
}

func TestBarrierReusable(t *testing.T) {
	w := NewWorld(4, Options{})
	errs := w.Run(func(r *Rank) error {
		for i := 0; i < 10; i++ {
			if err := r.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
}

func TestWtimeUsesPerRankClocks(t *testing.T) {
	base := clock.NewManual(100)
	w := NewWorld(2, Options{
		Clocks: []clock.Source{base, clock.NewSkewed(base, 5, 0, 0)},
	})
	if got := w.Rank(0).Wtime(); got != 100 {
		t.Fatalf("rank 0 Wtime = %v", got)
	}
	if got := w.Rank(1).Wtime(); got != 105 {
		t.Fatalf("rank 1 Wtime = %v", got)
	}
}

// Stress: random all-to-all traffic completes and every payload survives
// intact.
func TestRandomTrafficIntegrity(t *testing.T) {
	const n = 6
	const msgsPerRank = 40
	w := NewWorld(n, Options{EagerLimit: 128})
	var mu sync.Mutex
	received := map[string]int{}
	errs := w.Run(func(r *Rank) error {
		rng := rand.New(rand.NewSource(int64(r.ID()) + 1))
		done := make(chan error, 1)
		go func() {
			for i := 0; i < msgsPerRank*(n-1); i++ {
				m, err := r.Recv(AnySource, AnyTag)
				if err != nil {
					done <- err
					return
				}
				mu.Lock()
				received[fmt.Sprintf("%d->%d:%s", m.Source, r.ID(), m.Data)]++
				mu.Unlock()
			}
			done <- nil
		}()
		for i := 0; i < msgsPerRank; i++ {
			for dst := 0; dst < n; dst++ {
				if dst == r.ID() {
					continue
				}
				size := rng.Intn(300)
				payload := fmt.Sprintf("m%d-%d", i, size)
				if err := r.Send(dst, i, []byte(payload)); err != nil {
					return err
				}
			}
		}
		return <-done
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	want := n * (n - 1) * msgsPerRank
	total := 0
	for _, c := range received {
		total += c
	}
	if total != want {
		t.Fatalf("received %d messages, want %d", total, want)
	}
}

func TestTrafficCounters(t *testing.T) {
	w := NewWorld(2, Options{})
	errs := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			if err := r.Send(1, 1, []byte("hello")); err != nil {
				return err
			}
			if err := r.Send(1, 2, []byte("world!!")); err != nil {
				return err
			}
			// Collective and service traffic must not count.
			if err := r.SendCtx(CtxSvc, 1, 0, []byte("svc")); err != nil {
				return err
			}
			return nil
		}
		for i := 0; i < 2; i++ {
			if _, err := r.Recv(0, AnyTag); err != nil {
				return err
			}
		}
		if _, err := r.RecvCtx(CtxSvc, 0, 0); err != nil {
			return err
		}
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	t0 := w.Traffic(0)
	t1 := w.Traffic(1)
	if t0.Sent != 2 || t0.SentBytes != 12 || t0.Received != 0 {
		t.Fatalf("rank 0 traffic %+v", t0)
	}
	if t1.Received != 2 || t1.RecvBytes != 12 || t1.Sent != 0 {
		t.Fatalf("rank 1 traffic %+v", t1)
	}
	total := w.TotalTraffic()
	if total.Sent != 2 || total.Received != 2 || total.SentBytes != 12 {
		t.Fatalf("total traffic %+v", total)
	}
}
