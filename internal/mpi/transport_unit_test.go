package mpi

// Unit tests for the small transport seams the process-level suites step
// around: accessors, address parsing, the spawn-environment sniffing, and
// the wire decoder's truncation handling.

import (
	"os"
	"strings"
	"testing"
)

func TestInprocTransportAccessors(t *testing.T) {
	w := NewWorld(2, Options{})
	if got := w.LocalRank(); got != -1 {
		t.Errorf("LocalRank() = %d, want -1 (all ranks local)", got)
	}
	if got := w.Addr(); got != "" {
		t.Errorf("Addr() = %q, want empty in-process", got)
	}
}

// Addr is the address rank processes join w at ("" in-process).
func (w *World) Addr() string {
	if t, ok := w.t.(*socketTransport); ok {
		return t.addr
	}
	return ""
}

// SpawnedTransport returns the transport name a spawned rank should pass
// to Start — derived from the join address the parent handed down — or
// "" when the process was not spawned.
func SpawnedTransport() string {
	addr := os.Getenv(EnvAddr)
	switch {
	case addr == "":
		return ""
	case len(addr) >= 4 && addr[:4] == "tcp:":
		return TransportTCP
	default:
		return TransportSocket
	}
}

func TestInvariantError(t *testing.T) {
	err := invariantf("rank %d bad", 7)
	if err.Error() != "rank 7 bad" {
		t.Errorf("invariantf formatted %q", err.Error())
	}
}

func TestSpawnedTransport(t *testing.T) {
	t.Setenv(EnvAddr, "")
	if got := SpawnedTransport(); got != "" {
		t.Errorf("no env: %q, want empty", got)
	}
	t.Setenv(EnvAddr, "unix:/tmp/w.sock")
	if got := SpawnedTransport(); got != TransportSocket {
		t.Errorf("unix addr: %q, want %q", got, TransportSocket)
	}
	t.Setenv(EnvAddr, "tcp:127.0.0.1:9999")
	if got := SpawnedTransport(); got != TransportTCP {
		t.Errorf("tcp addr: %q, want %q", got, TransportTCP)
	}
}

func TestSplitAddrRejectsUnknownScheme(t *testing.T) {
	if _, _, err := splitAddr("ipx:whatever"); err == nil {
		t.Error("unknown scheme accepted")
	}
	network, target, err := splitAddr("tcp:127.0.0.1:80")
	if err != nil || network != "tcp" || target != "127.0.0.1:80" {
		t.Errorf("tcp addr parsed as (%q, %q, %v)", network, target, err)
	}
}

func TestStartRejectsUnknownTransport(t *testing.T) {
	if _, err := Start(2, Options{Transport: "carrier-pigeon"}); err == nil {
		t.Error("unknown transport accepted")
	}
	if _, err := Start(0, Options{}); err == nil {
		t.Error("zero-rank world accepted")
	}
}

// A socket transport hosts exactly one rank; asking it to operate on any
// other is an mpi-internal invariant violation, not an application error.
func TestSocketTransportChecksLocalRank(t *testing.T) {
	worlds := socketWorlds(t, 2, Options{})
	st := worlds[1].t.(*socketTransport)
	if got := worlds[1].LocalRank(); got != 1 || st.local != 1 {
		t.Fatalf("LocalRank() = %d, the transport's %d, want 1", got, st.local)
	}
	defer func() {
		if recover() == nil {
			t.Error("Take for a non-hosted rank did not panic")
		}
	}()
	st.Take(0, CtxUser, AnySource, AnyTag)
}

// Every frame type must reject a truncated body instead of reading past
// it, and unknown types must fail loudly.
func TestDecodeFrameTruncation(t *testing.T) {
	whole := map[string]*frame{
		"hello":   {typ: frHello, rank: 3, world: 4},
		"msg":     {typ: frMsg, dst: 1, ctx: 2, src: 0, tag: 5, flags: flagNeedAck, seq: 9, payload: []byte("xy")},
		"ack":     {typ: frAck, dst: 1, seq: 9},
		"barrier": {typ: frBarrier, rank: 2},
		"abort":   {typ: frAbort, code: 137},
		"bye":     {typ: frBye, rank: 1, traffic: Traffic{Sent: 1, SentBytes: 2, Received: 3, RecvBytes: 4}},
	}
	for name, fr := range whole {
		body := encodeFrame(fr)
		if _, err := decodeFrame(body); err != nil {
			t.Errorf("%s: intact frame rejected: %v", name, err)
		}
		// Chop at every prefix short of the payload: each must error, never
		// panic or fabricate fields.
		limit := len(body)
		if fr.typ == frMsg {
			limit -= len(fr.payload) // any payload length is legal
		}
		for cut := 1; cut < limit; cut++ {
			if _, err := decodeFrame(body[:cut]); err == nil {
				t.Errorf("%s: truncation at %d/%d accepted", name, cut, len(body))
			} else if !strings.Contains(err.Error(), "truncated") {
				t.Errorf("%s: truncation at %d: %v", name, cut, err)
			}
		}
	}
	if _, err := decodeFrame(nil); err == nil {
		t.Error("empty frame accepted")
	}
	if _, err := decodeFrame([]byte{0xEE}); err == nil {
		t.Error("unknown frame type accepted")
	}
}
