package mpi

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/stats"
)

// Conformance property suite: randomized seeded send/recv programs
// assert the MPI ordering semantics the log pipeline depends on —
// non-overtaking (messages with the same source and tag arrive in send
// order) and tag/source wildcard matching — and cross-check the message
// accounting three ways: a naive reference matcher (per-pair FIFO
// sequence queues), the world's Traffic counters, and the stats
// collector.

// confPayload encodes (src, tag, seq) so a received message is
// self-describing independent of the envelope.
func confPayload(src, tag, seq, size int) []byte {
	b := make([]byte, 12+size)
	binary.LittleEndian.PutUint32(b[0:], uint32(src))
	binary.LittleEndian.PutUint32(b[4:], uint32(tag))
	binary.LittleEndian.PutUint32(b[8:], uint32(seq))
	return b
}

func decodeConfPayload(b []byte) (src, tag, seq int) {
	return int(binary.LittleEndian.Uint32(b[0:])),
		int(binary.LittleEndian.Uint32(b[4:])),
		int(binary.LittleEndian.Uint32(b[8:]))
}

func TestConformanceRandomized(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runConformance(t, seed)
		})
	}
}

// sendRec is one planned send: its tag, its per-(src, tag) sequence
// number, and the padding appended after the 12-byte confPayload header.
type sendRec struct{ tag, seq, size int }

// confPlan is a fully deterministic function of its seed and shape, so
// the sender ranks of a multi-process conformance run can rebuild their
// own slices from nothing but the seed handed down in the environment.
type confPlan struct {
	nSenders, numTags, perSender int

	plans       [][]sendRec      // per sender rank, in send order
	queues      map[[2]int][]int // (src, tag) -> seqs in send order
	perTagCount map[int]int
	perTagBytes map[int]int64
	totalMsgs   int
	totalBytes  int64
}

// size returns the world size: the senders plus receiving rank 0.
func (p *confPlan) size() int { return p.nSenders + 1 }

// buildConfPlan plans every send up front with a seeded generator, so the
// reference matcher knows each (src, tag) pair's exact sequence order.
func buildConfPlan(seed int64, nSenders, numTags, perSender int) *confPlan {
	p := &confPlan{
		nSenders:    nSenders,
		numTags:     numTags,
		perSender:   perSender,
		plans:       make([][]sendRec, nSenders+1),
		queues:      map[[2]int][]int{},
		perTagCount: map[int]int{},
		perTagBytes: map[int]int64{},
	}
	planRng := rand.New(rand.NewSource(seed))
	for s := 1; s <= nSenders; s++ {
		seqs := map[int]int{}
		for i := 0; i < perSender; i++ {
			tag := 1 + planRng.Intn(numTags)
			size := planRng.Intn(48)
			rec := sendRec{tag: tag, seq: seqs[tag], size: size}
			seqs[tag]++
			p.plans[s] = append(p.plans[s], rec)
			p.queues[[2]int{s, tag}] = append(p.queues[[2]int{s, tag}], rec.seq)
			p.perTagCount[tag]++
			p.perTagBytes[tag] += int64(12 + size)
			p.totalMsgs++
			p.totalBytes += int64(12 + size)
		}
	}
	return p
}

// confSend replays rank r's planned sends toward rank 0.
func confSend(r *Rank, p *confPlan) error {
	for _, rec := range p.plans[r.ID()] {
		if err := r.Send(0, rec.tag, confPayload(r.ID(), rec.tag, rec.seq, rec.size)); err != nil {
			return err
		}
	}
	return nil
}

// confReceive consumes every planned message at rank 0, asserting
// envelope/payload agreement, wildcard honouring, and non-overtaking
// against the reference matcher. It mutates p.queues under mu and
// records assertion failures through fail; transport errors come back as
// the return value. The receiver draws its wildcard choices from its own
// seeded stream and anchors filters to a currently-available message
// (Iprobe), so no filter can starve regardless of scheduling.
func confReceive(r *Rank, p *confPlan, seed int64, mu *sync.Mutex, fail func(format string, args ...any)) error {
	recvRng := rand.New(rand.NewSource(seed * 7919))
	for got := 0; got < p.totalMsgs; got++ {
		// Pick a filter: anchored to an available message when one is
		// ready, a full wildcard otherwise.
		src, tag := AnySource, AnyTag
		if st, ok, err := r.Iprobe(AnySource, AnyTag); err != nil {
			return err
		} else if ok {
			switch recvRng.Intn(4) {
			case 0:
				src, tag = st.Source, st.Tag // exact
			case 1:
				tag = st.Tag // source wildcard
			case 2:
				src = st.Source // tag wildcard
			}
		}
		m, err := r.Recv(src, tag)
		if err != nil {
			return err
		}
		psrc, ptag, pseq := decodeConfPayload(m.Data)

		// Envelope and payload agree.
		if m.Source != psrc || m.Tag != ptag {
			fail("envelope (src=%d tag=%d) disagrees with payload (src=%d tag=%d)",
				m.Source, m.Tag, psrc, ptag)
		}
		// Wildcard filters were honoured.
		if src != AnySource && m.Source != src {
			fail("asked for source %d, got %d", src, m.Source)
		}
		if tag != AnyTag && m.Tag != tag {
			fail("asked for tag %d, got %d", tag, m.Tag)
		}
		// Non-overtaking: this message must be the oldest unreceived
		// one of its (source, tag) pair.
		key := [2]int{m.Source, m.Tag}
		mu.Lock()
		q := p.queues[key]
		if len(q) == 0 {
			fail("pair %v delivered more than was sent", key)
		} else {
			if q[0] != pseq {
				fail("non-overtaking violated on pair %v: got seq %d, want %d", key, pseq, q[0])
			}
			p.queues[key] = q[1:]
		}
		mu.Unlock()
	}
	return nil
}

// checkConfDrained asserts the reference matcher saw every planned send.
func checkConfDrained(t *testing.T, p *confPlan) {
	t.Helper()
	for key, q := range p.queues {
		if len(q) != 0 {
			t.Errorf("pair %v left %d undelivered seqs", key, len(q))
		}
	}
}

func runConformance(t *testing.T, seed int64) {
	p := buildConfPlan(seed, 3, 3, 50)
	n := p.size()
	mx := stats.New(n)
	mx.SetChannels(p.numTags)
	w := NewWorld(n, Options{Metrics: mx})

	var mu sync.Mutex // guards queues + failure notes from the rank goroutine
	var failures []string
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	errs := w.Run(func(r *Rank) error {
		if r.ID() != 0 {
			return confSend(r, p)
		}
		return confReceive(r, p, seed, &mu, fail)
	})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	for _, f := range failures {
		t.Error(f)
	}
	checkConfDrained(t, p)

	// Cross-check 1: the world's own traffic counters.
	if tr := w.Traffic(0); tr.Received != int64(p.totalMsgs) || tr.RecvBytes != p.totalBytes {
		t.Errorf("Traffic(0) = %+v, want %d msgs / %d bytes received", tr, p.totalMsgs, p.totalBytes)
	}
	tot := w.TotalTraffic()
	if tot.Sent != int64(p.totalMsgs) || tot.SentBytes != p.totalBytes {
		t.Errorf("TotalTraffic = %+v, want %d msgs / %d bytes sent", tot, p.totalMsgs, p.totalBytes)
	}

	// Cross-check 2: the stats collector, totals and per-channel cells.
	if got := mx.Total(stats.CtrMsgsSent); got != int64(p.totalMsgs) {
		t.Errorf("stats msgs_sent = %d, want %d", got, p.totalMsgs)
	}
	if got := mx.Total(stats.CtrBytesRecv); got != p.totalBytes {
		t.Errorf("stats bytes_recv = %d, want %d", got, p.totalBytes)
	}
	snap := mx.Snapshot()
	for _, ch := range snap.Channels {
		if ch.Sent != int64(p.perTagCount[ch.Chan]) || ch.SentBytes != p.perTagBytes[ch.Chan] {
			t.Errorf("channel %d sent %d/%dB, plan says %d/%dB",
				ch.Chan, ch.Sent, ch.SentBytes, p.perTagCount[ch.Chan], p.perTagBytes[ch.Chan])
		}
		if ch.Recvd != int64(p.perTagCount[ch.Chan]) || ch.RecvdBytes != p.perTagBytes[ch.Chan] {
			t.Errorf("channel %d recvd %d/%dB, plan says %d/%dB",
				ch.Chan, ch.Recvd, ch.RecvdBytes, p.perTagCount[ch.Chan], p.perTagBytes[ch.Chan])
		}
	}
}

// Probe-then-receive: a receive anchored to exactly what Iprobe reported
// must deliver that same message, for every message, while senders keep
// racing new envelopes into the mailbox. PI_Select sweeps its bundle with
// Iprobe and PI_Read then receives on the channel it named, so this is
// the guarantee that pairing relies on. Because only this rank consumes
// its mailbox and matching is non-overtaking, the probed message is the
// oldest of its (source, tag) pair — so the anchored receive must return
// a message whose status matches the probe's exactly, length included.
func TestConformanceProbeThenRecv(t *testing.T) {
	const (
		nSenders  = 3
		perSender = 60
	)
	n := nSenders + 1
	w := NewWorld(n, Options{})
	errs := w.Run(func(r *Rank) error {
		if r.ID() != 0 {
			for i := 0; i < perSender; i++ {
				tag := 1 + i%3
				if err := r.Send(0, tag, confPayload(r.ID(), tag, i, i%32)); err != nil {
					return err
				}
			}
			return nil
		}
		for got := 0; got < nSenders*perSender; {
			st, ok, err := r.Iprobe(AnySource, AnyTag)
			if err != nil {
				return err
			}
			if !ok {
				runtime.Gosched()
				continue
			}
			got++
			m, err := r.Recv(st.Source, st.Tag)
			if err != nil {
				return err
			}
			if m.Source != st.Source || m.Tag != st.Tag || m.Len != st.Len {
				return fmt.Errorf("probe reported (src=%d tag=%d len=%d), recv delivered (src=%d tag=%d len=%d)",
					st.Source, st.Tag, st.Len, m.Source, m.Tag, m.Len)
			}
		}
		return nil
	})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

// Non-overtaking must hold under rendezvous just as under eager
// delivery: with every send forced to rendezvous, a strict ping-pong
// still sees per-pair order preserved.
func TestConformanceRendezvousOrdering(t *testing.T) {
	const msgs = 30
	mx := stats.New(2)
	w := NewWorld(2, Options{EagerLimit: -1, Metrics: mx})
	errs := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			for i := 0; i < msgs; i++ {
				if err := r.Send(1, 1, confPayload(0, 1, i, 4)); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			m, err := r.Recv(AnySource, AnyTag)
			if err != nil {
				return err
			}
			if _, _, seq := decodeConfPayload(m.Data); seq != i {
				return fmt.Errorf("rendezvous overtaking: got seq %d at position %d", seq, i)
			}
		}
		return nil
	})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	if got := mx.Total(stats.CtrMsgsSent); got != msgs {
		t.Errorf("stats msgs_sent = %d, want %d", got, msgs)
	}
	// Every send waited for its matching receive, so the write-block
	// histogram must have one sample per message.
	snap := mx.Snapshot()
	if h := snap.Hists["write_block_ns"]; h.Count != msgs {
		t.Errorf("write_block_ns count = %d, want %d", h.Count, msgs)
	}
}
