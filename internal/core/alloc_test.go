package core

import (
	"testing"
)

// Satellite regression test for the hoisted Enabled() checks: with no
// logging service active, the Pilot calls that only exist to feed the
// logs must do zero formatting work — measured as zero allocations.
func TestDisabledLoggingCallsAllocFree(t *testing.T) {
	runAllocGate(t, false)
}

// The stats collector rides the same hot paths; turning it on must not
// reintroduce allocations into the gated calls.
func TestMetricsEnabledKeepsAllocGates(t *testing.T) {
	runAllocGate(t, true)
}

func runAllocGate(t *testing.T, metrics bool) {
	cfg, _ := testConfig(t, 2, "") // no services: no MPE, no native log
	cfg.Metrics = metrics
	r := mustRuntime(t, cfg)
	if metrics && r.Metrics() == nil {
		t.Fatal("Config.Metrics did not install a collector")
	}
	p, err := r.CreateProcess(func(self *Self, index int, arg any) int {
		ch := arg.(chan *Self)
		ch <- self
		<-ch // hold the worker until measurements finish
		return 0
	}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	hold := make(chan *Self)
	p.SetArg(hold)
	main, err := r.StartAll()
	if err != nil {
		t.Fatal(err)
	}
	worker := <-hold
	defer func() {
		hold <- nil
		if err := r.StopMain(0); err != nil {
			t.Fatal(err)
		}
	}()

	// Warm callerLoc's PC cache: the first call per site formats and
	// stores the location; every later call is a read-locked map hit.
	_ = main.Log("warm")
	_ = main.StartTime()
	_ = main.EndTime()
	_ = worker.Log("warm")

	cases := []struct {
		name string
		fn   func()
	}{
		{"PI_Log", func() { _ = main.Log("checkpoint reached at step") }},
		{"PI_StartTime", func() { _ = main.StartTime() }},
		{"PI_EndTime", func() { _ = main.EndTime() }},
		{"PI_Log worker", func() { _ = worker.Log("worker checkpoint") }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(200, tc.fn); n != 0 {
			t.Errorf("%s with logging disabled allocates %.2f per run, want 0", tc.name, n)
		}
	}
}

// callerLoc must return the same "file.go:line" through the PC cache as
// the direct runtime.Caller formatting did, on both cold and warm paths.
func TestCallerLocStable(t *testing.T) {
	loc1 := callerLoc(0)
	loc2 := callerLoc(0)
	if loc1 == "" || loc2 == "" {
		t.Fatal("callerLoc returned empty location")
	}
	// Different lines of the same file; prefix identical, line differs.
	if loc1 == loc2 {
		t.Fatalf("distinct call sites produced identical locations %q", loc1)
	}
	same := func() string { return callerLoc(1) }
	a, b := same(), same()
	if a != b {
		t.Fatalf("one call site produced %q then %q", a, b)
	}
	const want = "alloc_test.go"
	if len(loc1) < len(want) || loc1[:len(want)] != want {
		t.Fatalf("callerLoc = %q, want prefix %q", loc1, want)
	}
}

// A logged round trip at check level 3 (two Writes and two Reads of a %d,
// under -pisvc=j) allocates what the transport and the boxed arguments
// need, and nothing a layer above them could keep: each message is
// encoded and framed once into a pooled buffer, checked without parsing,
// received through a pooled waiter and logged into a pooled page.
// Measured: 10 a round trip, 13 under the race detector, whose
// sync.Pool drops a quarter of what it is given.
func TestLoggedRoundTripAllocs(t *testing.T) {
	cfg, _ := testConfig(t, 2, "j")
	r := mustRuntime(t, cfg)
	var to, from *Channel
	p, err := r.CreateProcess(func(self *Self, index int, arg any) int {
		var v int
		for {
			if err := to.Read("%d", &v); err != nil || v < 0 {
				return 0
			}
			if err := from.Write("%d", v+1); err != nil {
				return 1
			}
		}
	}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	to, _ = r.CreateChannel(r.MainProc(), p)
	from, _ = r.CreateChannel(p, r.MainProc())
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	v := 1000
	trip := func() {
		if err := to.Write("%d", v); err != nil {
			t.Fatal(err)
		}
		if err := from.Read("%d", &v); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(500, trip)
	if err := to.Write("%d", -1); err != nil {
		t.Fatal(err)
	}
	if err := r.StopMain(0); err != nil {
		t.Fatal(err)
	}
	t.Logf("%.2f allocations a logged level-3 round trip", n)
	if n > 14 {
		t.Errorf("a logged level-3 round trip allocates %.2f times", n)
	}
}
