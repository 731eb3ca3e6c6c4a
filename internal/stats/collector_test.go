package stats

import (
	"encoding/json"
	"expvar"
	"math"
	"testing"
)

func TestCountersAndChannels(t *testing.T) {
	c := New(3)
	c.SetChannels(2)

	c.SendObserved(0, 1, 100, 5)
	c.SendObserved(0, 1, 50, 5)
	c.RecvObserved(1, 1, 100, 7)
	c.RecvObserved(1, 1, 50, 7)
	c.SendObserved(2, 2, 8, 1)
	c.RecvObserved(0, 2, 8, 1)
	c.BarrierWait(1, 10)
	c.SelectObserved(0, 4, 30)
	c.SpillWrite(1, 64)
	c.SpillWrite(1, 64)
	c.FaultInjected(2)

	if got := c.Counter(0, CtrMsgsSent); got != 2 {
		t.Errorf("rank 0 msgs_sent = %d, want 2", got)
	}
	if got := c.Total(CtrMsgsSent); got != 3 {
		t.Errorf("total msgs_sent = %d, want 3", got)
	}
	if got := c.Total(CtrBytesSent); got != 158 {
		t.Errorf("total bytes_sent = %d, want 158", got)
	}
	if got := c.Total(CtrBytesRecv); got != 158 {
		t.Errorf("total bytes_recv = %d, want 158", got)
	}
	if got := c.Total(CtrBarriers); got != 1 {
		t.Errorf("total barriers = %d, want 1", got)
	}
	if got := c.Total(CtrSpillSegments); got != 2 {
		t.Errorf("total spill_segments = %d, want 2", got)
	}
	if got := c.Total(CtrSpillBytes); got != 128 {
		t.Errorf("total spill_bytes = %d, want 128", got)
	}
	if got := c.Total(CtrFaultsInjected); got != 1 {
		t.Errorf("total faults_injected = %d, want 1", got)
	}

	snap := c.Snapshot()
	if len(snap.Channels) != 2 {
		t.Fatalf("got %d channel snapshots, want 2", len(snap.Channels))
	}
	ch1 := snap.Channels[0]
	if ch1.Chan != 1 || ch1.Sent != 2 || ch1.SentBytes != 150 || ch1.Recvd != 2 || ch1.RecvdBytes != 150 {
		t.Errorf("channel 1 snapshot wrong: %+v", ch1)
	}
	ch2 := snap.Channels[1]
	if ch2.Chan != 2 || ch2.Sent != 1 || ch2.SentBytes != 8 {
		t.Errorf("channel 2 snapshot wrong: %+v", ch2)
	}
	if snap.Totals["msgs_sent"] != 3 || snap.Totals["selects"] != 1 {
		t.Errorf("snapshot totals wrong: %v", snap.Totals)
	}
	fan, ok := snap.Hists["select_fan_in"]
	if !ok || fan.Count != 1 || fan.Min != 4 || fan.Max != 4 {
		t.Errorf("select_fan_in hist wrong: %+v (present=%v)", fan, ok)
	}
}

// Observations addressed outside the sized ranges must neither panic nor
// corrupt neighbouring cells: out-of-range ranks are dropped, channel IDs
// outside [1, n] fall through to the per-rank counters only.
func TestOutOfRangeObservations(t *testing.T) {
	c := New(2)
	c.SetChannels(1)

	c.SendObserved(-1, 1, 10, 0)
	c.SendObserved(99, 1, 10, 0)
	c.RecvObserved(-1, 1, 10, 0)
	c.BarrierWait(99, 1)
	c.FaultInjected(-5)
	if got := c.Total(CtrMsgsSent); got != 0 {
		t.Errorf("out-of-range ranks counted: total msgs_sent = %d", got)
	}

	c.SendObserved(0, 0, 10, 0)  // channel 0: no cell (IDs are 1-based)
	c.SendObserved(0, 42, 10, 0) // channel 42: beyond the sized table
	if got := c.Total(CtrMsgsSent); got != 2 {
		t.Errorf("rank counters should still see out-of-range channels: got %d, want 2", got)
	}
	snap := c.Snapshot()
	if snap.Channels[0].Sent != 0 {
		t.Errorf("channel 1 charged for out-of-range IDs: %+v", snap.Channels[0])
	}

	// Counter accessors with bad indices.
	if c.Counter(0, -1) != 0 || c.Counter(0, numCounters) != 0 || c.Total(-1) != 0 {
		t.Error("bad counter indices should read 0")
	}
}

// A nil collector is the disabled state: every method must be callable.
func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Error("nil collector reports enabled")
	}
	c.SetChannels(4)
	c.SendObserved(0, 1, 10, 5)
	c.RecvObserved(0, 1, 10, 5)
	c.BarrierWait(0, 1)
	c.SelectObserved(0, 2, 1)
	c.SpillWrite(0, 10)
	c.FaultInjected(0)
	if c.Counter(0, CtrMsgsSent) != 0 || c.Total(CtrMsgsSent) != 0 {
		t.Error("nil collector returned nonzero counters")
	}
	if c.NumRanks() != 0 {
		t.Error("nil collector has ranks")
	}
	if c.Snapshot() != nil {
		t.Error("nil collector produced a snapshot")
	}
	Publish(nil) // must not register or panic
}

func TestHistObserve(t *testing.T) {
	var h hist
	h.min.Store(math.MaxInt64)
	for _, v := range []int64{1, 2, 3, 100, 1000, -5} { // -5 clamps to 0
		h.observe(v)
	}
	s := h.snapshot()
	if s.Count != 6 {
		t.Errorf("count = %d, want 6", s.Count)
	}
	if s.Min != 0 {
		t.Errorf("min = %d, want 0 (negative clamped)", s.Min)
	}
	if s.Max != 1000 {
		t.Errorf("max = %d, want 1000", s.Max)
	}
	if s.Sum != 1106 {
		t.Errorf("sum = %d, want 1106", s.Sum)
	}
	if got := s.Mean(); math.Abs(got-1106.0/6) > 1e-9 {
		t.Errorf("mean = %v", got)
	}
	// Quantile returns a log2-bucket upper bound: it may overestimate
	// within a bucket but never exceeds Max or drops below Min.
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
		v := s.Quantile(q)
		if v < s.Min || v > s.Max {
			t.Errorf("Quantile(%v) = %d outside [%d, %d]", q, v, s.Min, s.Max)
		}
	}
	if v := s.Quantile(1); v != 1000 {
		t.Errorf("Quantile(1) = %d, want clamped to max 1000", v)
	}
	if v := s.Quantile(0.5); v > 3 {
		// 6 samples; the 3rd is 3 → bucket [2,3], bound 3.
		t.Errorf("Quantile(0.5) = %d, want ≤ 3", v)
	}
}

// The zero-sample regression from the satellite list: percentile math on
// an empty histogram must return 0, not divide by zero or read a bogus
// MaxInt64 min.
func TestHistQuantileEmpty(t *testing.T) {
	var s HistSnapshot
	for _, q := range []float64{-1, 0, 0.5, 0.95, 1, 2} {
		if v := s.Quantile(q); v != 0 {
			t.Errorf("empty Quantile(%v) = %d, want 0", q, v)
		}
	}
	if s.Mean() != 0 {
		t.Errorf("empty Mean = %v, want 0", s.Mean())
	}

	var h hist
	h.min.Store(math.MaxInt64)
	snap := h.snapshot()
	if snap.Min != 0 || snap.Max != 0 || snap.Count != 0 {
		t.Errorf("empty hist snapshot = %+v, want zeros", snap)
	}
	if len(snap.Buckets) != 0 {
		t.Errorf("empty hist has %d buckets", len(snap.Buckets))
	}
}

func TestMergeHists(t *testing.T) {
	var a, b, empty hist
	for _, h := range []*hist{&a, &b, &empty} {
		h.min.Store(math.MaxInt64)
	}
	a.observe(1)
	a.observe(10)
	b.observe(100)
	m := mergeHists([]HistSnapshot{a.snapshot(), b.snapshot(), empty.snapshot()})
	if m.Count != 3 || m.Sum != 111 || m.Min != 1 || m.Max != 100 {
		t.Errorf("merge = %+v", m)
	}
	if me := mergeHists([]HistSnapshot{empty.snapshot()}); me.Count != 0 || me.Min != 0 {
		t.Errorf("all-empty merge = %+v, want zeros", me)
	}
}

func TestQuantileClampsToObservedRange(t *testing.T) {
	var h hist
	h.min.Store(math.MaxInt64)
	h.observe(1000) // bucket 10: bound 1023, must clamp to 1000
	s := h.snapshot()
	if v := s.Quantile(0.5); v != 1000 {
		t.Errorf("Quantile = %d, want 1000 (clamped to max)", v)
	}
	var h2 hist
	h2.min.Store(math.MaxInt64)
	h2.observe(0)
	s2 := h2.snapshot()
	if v := s2.Quantile(1); v != 0 {
		t.Errorf("Quantile of all-zero = %d, want 0", v)
	}
}

// Observations are the hot path: they must not allocate, with or without
// channel cells in place — the same gate the PR-3 logging paths carry.
func TestObservationsDoNotAllocate(t *testing.T) {
	c := New(4)
	c.SetChannels(8)
	cases := map[string]func(){
		"SendObserved":   func() { c.SendObserved(1, 3, 128, 250) },
		"RecvObserved":   func() { c.RecvObserved(2, 3, 128, 250) },
		"BarrierWait":    func() { c.BarrierWait(0, 10) },
		"SelectObserved": func() { c.SelectObserved(1, 5, 99) },
		"SpillWrite":     func() { c.SpillWrite(2, 4096) },
		"FaultInjected":  func() { c.FaultInjected(3) },
	}
	for name, fn := range cases {
		if n := testing.AllocsPerRun(200, fn); n != 0 {
			t.Errorf("%s allocates %v per op, want 0", name, n)
		}
	}
	var nilC *Collector
	if n := testing.AllocsPerRun(200, func() { nilC.SendObserved(0, 1, 1, 1) }); n != 0 {
		t.Errorf("disabled SendObserved allocates %v per op, want 0", n)
	}
}

func TestPublishExpvar(t *testing.T) {
	c := New(2)
	c.SendObserved(0, 1, 10, 1)
	Publish(c)
	if Published() != c {
		t.Fatal("Published() did not return the collector")
	}
	v := expvar.Get("pilot_stats")
	if v == nil {
		t.Fatal("pilot_stats not registered with expvar")
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
		t.Fatalf("pilot_stats did not render as JSON: %v", err)
	}
	if snap.Totals["msgs_sent"] != 1 {
		t.Errorf("expvar totals = %v, want msgs_sent 1", snap.Totals)
	}

	// Re-publishing (a second runtime in the same process) swaps the
	// collector without panicking on a duplicate expvar name.
	c2 := New(1)
	c2.SendObserved(0, 1, 10, 1)
	c2.SendObserved(0, 1, 10, 1)
	Publish(c2)
	if err := json.Unmarshal([]byte(expvar.Get("pilot_stats").String()), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Totals["msgs_sent"] != 2 {
		t.Errorf("after swap, expvar totals = %v, want msgs_sent 2", snap.Totals)
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	c := New(1)
	c.SetChannels(1)
	c.SendObserved(0, 1, 5, 2)
	data, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"ranks", "channels", "totals"} {
		if _, ok := m[key]; !ok {
			t.Errorf("snapshot JSON missing %q: %s", key, data)
		}
	}
}

// BenchmarkSendObserved times one live-metrics observation, what the
// collector adds to every instrumented send: "on" goes through the rank's
// shard and the channel's cell, "off" is the nil-collector gate that every
// run without -pistats pays.
func BenchmarkSendObserved(b *testing.B) {
	on := New(4)
	on.SetChannels(8)
	for _, mode := range []struct {
		name string
		c    *Collector
	}{{"on", on}, {"off", nil}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mode.c.SendObserved(1, 3, 128, 250)
			}
		})
	}
}
