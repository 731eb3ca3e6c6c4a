package mpi

// Raw 64-byte round trips per rank substrate: what the multi-process wire
// costs next to the in-process baseline. The world is set up once per
// measurement, outside the timer (process spawn is not what is measured),
// and one op is one round trip: a Send and a Recv at rank 0.

import (
	"fmt"
	"os"
	"testing"
)

// Tags of the ping-pong protocol: rank 1 echoes every ping payload back
// until the stop tag arrives.
const (
	pingTag = 1
	stopTag = 2
)

// pingPongEcho is the rank-1 half: echo until told to stop.
func pingPongEcho(r *Rank) error {
	for {
		m, err := r.Recv(0, AnyTag)
		if err != nil || m.Tag == stopTag {
			return err
		}
		if err := r.Send(0, pingTag, m.Data); err != nil {
			return err
		}
	}
}

// TestTransportPingPongChildHook hosts the spawned rank of the socket and
// TCP rows: inert under a normal `go test`, it becomes the echo rank when
// this test binary is launched with the PILOT_MPI_* join environment.
func TestTransportPingPongChildHook(t *testing.T) {
	if !Spawned() {
		t.Skip("spawned rank body; run via BenchmarkTransportPingPong")
	}
	// This process shares the parent's stdout, where its own "PASS" would
	// land inside a benchmark's result line.
	if null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0); err == nil {
		os.Stdout = null
	}
	w, err := Start(2, Options{Transport: SpawnedTransport()})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if err := w.Run(pingPongEcho)[w.LocalRank()]; err != nil {
		t.Errorf("spawned echo rank: %v", err)
	}
	if err := w.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// pingPong makes trips round trips between rank 0 and an echo rank over
// one transport, timing them when tb is a benchmark. In process rank 1 is
// a goroutine; over a socket or TCP it is this binary, spawned on the hook
// test above.
func pingPong(tb testing.TB, transport string, trips int) {
	w, err := Start(2, Options{
		Transport:    transport,
		SpawnCommand: []string{os.Args[0], "-test.run=^TestTransportPingPongChildHook$"},
	})
	if err != nil {
		tb.Fatalf("Start(%s): %v", transport, err)
	}
	errs := w.Run(func(r *Rank) error {
		if r.ID() != 0 {
			return pingPongEcho(r) // present only under the in-process transport
		}
		payload := make([]byte, 64)
		if b, ok := tb.(*testing.B); ok {
			b.ResetTimer()
			defer b.StopTimer()
		}
		for i := 0; i < trips; i++ {
			if err := r.Send(1, pingTag, payload); err != nil {
				return err
			}
			if m, err := r.Recv(1, pingTag); err != nil || len(m.Data) != len(payload) {
				return fmt.Errorf("trip %d: echo of %d bytes, %v", i, len(m.Data), err)
			}
		}
		return r.Send(1, stopTag, nil)
	})
	for rank, err := range errs {
		if err != nil {
			tb.Errorf("%s rank %d: %v", transport, rank, err)
		}
	}
	if err := w.Shutdown(); err != nil {
		tb.Errorf("%s shutdown: %v", transport, err)
	}
}

func BenchmarkTransportPingPong(b *testing.B) {
	for _, transport := range []string{TransportInproc, TransportSocket, TransportTCP} {
		b.Run(transport, func(b *testing.B) {
			b.ReportAllocs()
			pingPong(b, transport, b.N)
		})
	}
}

// TestBenchTransportPingPong is the benchmark's one-trip smoke: the
// in-process row and the socket row, whose spawned rank is this test
// binary, both still run.
func TestBenchTransportPingPong(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a rank process; skipped in -short")
	}
	for _, transport := range []string{TransportInproc, TransportSocket} {
		pingPong(t, transport, 1)
	}
}
