package mpi

// Regression tests for the mailbox matching fixes: take must not pin a
// consumed envelope through the compacted queue's tail slot, and the
// receive side must validate its arguments as strictly as the send side
// (a typo'd tag must fail fast, not block forever).

import (
	"strings"
	"testing"
	"time"
)

// Taking from the middle of the queue must nil the vacated tail slot so
// the consumed envelope's payload is not pinned until the slot is reused.
func TestTakeCompactionClearsVacatedSlot(t *testing.T) {
	b := newMailbox()
	for tag := 0; tag < 3; tag++ {
		if !b.put(&Envelope{Ctx: CtxUser, Src: 0, Tag: tag, Data: []byte{byte(tag)}}) {
			t.Fatalf("put tag %d failed", tag)
		}
	}
	env, ok := b.take(CtxUser, 0, 1) // the middle one
	if !ok || env.Tag != 1 {
		t.Fatalf("take = %+v, %v", env, ok)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.queue) != 2 {
		t.Fatalf("queue length %d, want 2", len(b.queue))
	}
	if tail := b.queue[:3][2]; tail != nil {
		t.Fatalf("vacated tail slot still pins the envelope with tag %d", tail.Tag)
	}
}

// The receive side must reject bad tags and contexts as promptly as the
// send side does: before the fix, Recv(1, -2) registered an unmatchable
// waiter and blocked forever.
func TestRecvSideValidation(t *testing.T) {
	w := NewWorld(2, Options{})
	r := w.Rank(0)
	cases := []struct {
		name string
		call func() error
		want string
	}{
		{"recv negative tag", func() error { _, err := r.Recv(1, -2); return err }, "invalid tag -2"},
		{"recv context too high", func() error { _, err := r.RecvCtx(numCtx, 1, 0); return err }, "invalid context"},
		{"recv negative context", func() error { _, err := r.RecvCtx(-1, 1, 0); return err }, "invalid context"},
		{"iprobe negative tag", func() error { _, _, err := r.Iprobe(1, -3); return err }, "invalid tag -3"},
		{"iprobe bad context", func() error { _, _, err := r.IprobeCtx(99, 1, 0); return err }, "invalid context 99"},
	}
	for _, tc := range cases {
		done := make(chan error, 1)
		go func() { done <- tc.call() }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
			}
		case <-time.After(2 * time.Second):
			t.Errorf("%s: blocked instead of failing fast", tc.name)
		}
	}
	// The wildcards themselves remain valid receive arguments.
	if _, ok, err := r.Iprobe(AnySource, AnyTag); err != nil || ok {
		t.Errorf("Iprobe(AnySource, AnyTag) on empty mailbox: ok=%v err=%v", ok, err)
	}
}
