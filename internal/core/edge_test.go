package core

import (
	"strings"
	"testing"
)

// Reduce over caret arrays: contributions carry their own length on the
// wire and must agree.
func TestReduceCaretArrays(t *testing.T) {
	const W = 3
	cfg, _ := testConfig(t, W+1, "")
	r := mustRuntime(t, cfg)
	var from []*Channel
	fn := func(self *Self, index int, arg any) int {
		vals := []int{index + 1, (index + 1) * 10}
		if err := from[index].Write("%^d", vals); err != nil {
			return 1
		}
		return 0
	}
	_, from, _ = buildStar(t, r, W, fn)
	red, err := r.CreateBundle(UsageReduce, from...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	var got []int
	if err := red.Reduce(OpSum, "%^d", &got); err != nil {
		t.Fatal(err)
	}
	if err := r.StopMain(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1+2+3 || got[1] != 60 {
		t.Fatalf("caret reduce = %v", got)
	}
}

// Reduce with mismatched caret lengths fails loudly at the endpoint.
func TestReduceCaretLengthMismatch(t *testing.T) {
	cfg, _ := testConfig(t, 3, "")
	r := mustRuntime(t, cfg)
	var from []*Channel
	fn := func(self *Self, index int, arg any) int {
		vals := make([]int, index+1) // different length per worker
		from[index].Write("%^d", vals)
		return 0
	}
	_, from, _ = buildStar(t, r, 2, fn)
	red, err := r.CreateBundle(UsageReduce, from...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	var got []int
	if err := red.Reduce(OpSum, "%^d", &got); err == nil {
		t.Fatal("mismatched caret reduce succeeded")
	}
	r.StopMain(0)
}

// Scatter and Gather reject non-portionable formats.
func TestScatterGatherFormatValidation(t *testing.T) {
	cfg, _ := testConfig(t, 3, "")
	r := mustRuntime(t, cfg)
	var to, from []*Channel
	fn := func(self *Self, index int, arg any) int { return 0 }
	to, from, _ = buildStar(t, r, 2, fn)
	sc, err := r.CreateBundle(UsageScatter, to...)
	if err != nil {
		t.Fatal(err)
	}
	ga, err := r.CreateBundle(UsageGather, from...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	// Scalar, caret, multi-conversion: all rejected.
	if err := sc.Scatter("%d", 1); err == nil {
		t.Error("scalar scatter accepted")
	}
	if err := sc.Scatter("%^d", []int{1, 2}); err == nil {
		t.Error("caret scatter accepted")
	}
	if err := sc.Scatter("%*d %*d", 1, []int{1}, 1, []int{2}); err == nil {
		t.Error("multi-conversion scatter accepted")
	}
	if err := ga.Gather("%s", new(string)); err == nil {
		t.Error("string gather accepted")
	}
	r.StopMain(0)
}

// Error level 3 validates read destinations before any message is
// consumed: a bad call must not desynchronise the channel.
func TestLevel3ReadValidationPreservesStream(t *testing.T) {
	cfg, _ := testConfig(t, 2, "")
	cfg.CheckLevel = 3
	r := mustRuntime(t, cfg)
	var ch *Channel
	p, _ := r.CreateProcess(func(self *Self, index int, arg any) int {
		ch.Write("%d", 41)
		ch.Write("%d", 42)
		return 0
	}, 0, nil)
	ch, _ = r.CreateChannel(p, r.MainProc())
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	// Wrong arity or a destination of the wrong type: rejected before the
	// first message is consumed.
	var v int
	var f float64
	var fs []float64
	bad := map[string]func() error{
		"short arg list":              func() error { return ch.Read("%d %d", &v) },
		"wrong pointer type":          func() error { return ch.Read("%d", &f) },
		"wrong slice type for %*d":    func() error { return ch.Read("%*d", 1, []float64{0}) },
		"wrong slice type for %^d":    func() error { return ch.Read("%^d", &fs) },
		"second destination wrong":    func() error { return ch.Read("%d %d", &v, &f) },
		"slice shorter than %*d":      func() error { return ch.Read("%*d", 2, []int{0}) },
		"non-pointer scalar":          func() error { return ch.Read("%d", v) },
		"slice for a %^d destination": func() error { return ch.Read("%^d", []int{0}) },
	}
	for name, read := range bad {
		if err := read(); err == nil {
			t.Fatalf("%s accepted at level 3", name)
		}
	}
	// The stream is intact: both values still readable in order.
	var a, b int
	if err := ch.Read("%d", &a); err != nil {
		t.Fatal(err)
	}
	if err := ch.Read("%d", &b); err != nil {
		t.Fatal(err)
	}
	if a != 41 || b != 42 {
		t.Fatalf("stream desynchronised: %d %d", a, b)
	}
	r.StopMain(0)
}

// Write with surplus arguments is rejected at every level (argument
// count mismatch is a hard API error).
func TestWriteSurplusArgs(t *testing.T) {
	cfg, _ := testConfig(t, 2, "")
	cfg.CheckLevel = 0
	r := mustRuntime(t, cfg)
	p, _ := r.CreateProcess(func(self *Self, index int, arg any) int {
		var v int
		arg.(*Channel).Read("%d", &v)
		return 0
	}, 0, nil)
	ch, _ := r.CreateChannel(r.MainProc(), p)
	p.SetArg(ch)
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	if err := ch.Write("%d", 1, 2, 3); err == nil {
		t.Error("surplus write args accepted")
	}
	if err := ch.Write("%d", 1); err != nil {
		t.Fatal(err)
	}
	r.StopMain(0)
}

// The wire protocol's spec header survives hostile framing: a raw MPI
// message that is not a valid frame produces a diagnostic, not a panic.
func TestReadRejectsMalformedFrame(t *testing.T) {
	cfg, _ := testConfig(t, 2, "")
	r := mustRuntime(t, cfg)
	p, _ := r.CreateProcess(func(self *Self, index int, arg any) int { return 0 }, 0, nil)
	ch, _ := r.CreateChannel(p, r.MainProc())
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	// Inject a raw message on the channel's tag, bypassing the Pilot
	// framing (this simulates a corrupted transport).
	if err := r.World().Rank(p.Rank()).Send(0, ch.ID(), []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	var v int
	err := ch.Read("%d", &v)
	if err == nil {
		t.Fatal("malformed frame accepted")
	}
	if !strings.Contains(err.Error(), "frame") {
		t.Fatalf("unhelpful error: %v", err)
	}
	r.StopMain(0)
}

// IsLogging reflects the active services.
func TestIsLogging(t *testing.T) {
	cfg, _ := testConfig(t, 3, "cd")
	r := mustRuntime(t, cfg)
	self, err := r.StartAll()
	if err != nil {
		t.Fatal(err)
	}
	if !self.IsLogging(SvcNativeLog) || !self.IsLogging(SvcDeadlock) {
		t.Error("enabled services not reported")
	}
	if self.IsLogging(SvcJumpshot) {
		t.Error("jumpshot reported without j")
	}
	r.StopMain(0)
}

// A channel's MPI tag equals its ID and stays unique.
func TestChannelTagsUnique(t *testing.T) {
	cfg, _ := testConfig(t, 3, "")
	r := mustRuntime(t, cfg)
	fn := func(self *Self, index int, arg any) int { return 0 }
	p1, _ := r.CreateProcess(fn, 0, nil)
	p2, _ := r.CreateProcess(fn, 1, nil)
	seen := map[int]bool{}
	for _, pair := range [][2]*Process{{r.MainProc(), p1}, {r.MainProc(), p2}, {p1, p2}, {p2, p1}} {
		c, err := r.CreateChannel(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if seen[c.ID()] {
			t.Fatalf("duplicate channel id %d", c.ID())
		}
		seen[c.ID()] = true
	}
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	r.StopMain(0)
}
