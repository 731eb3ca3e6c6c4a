package core

import (
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/clog2"
	"repro/internal/slog2"
)

// buildStar wires W workers to main with one channel in each direction and
// returns (toWorkers, fromWorkers, procs).
func buildStar(t *testing.T, r *Runtime, w int, fn WorkFunc) ([]*Channel, []*Channel, []*Process) {
	t.Helper()
	to := make([]*Channel, w)
	from := make([]*Channel, w)
	procs := make([]*Process, w)
	for i := 0; i < w; i++ {
		p, err := r.CreateProcess(fn, i, nil)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
		if to[i], err = r.CreateChannel(r.MainProc(), p); err != nil {
			t.Fatal(err)
		}
		if from[i], err = r.CreateChannel(p, r.MainProc()); err != nil {
			t.Fatal(err)
		}
	}
	return to, from, procs
}

func TestBroadcastAndGather(t *testing.T) {
	const W = 4
	cfg, _ := testConfig(t, W+1, "")
	r := mustRuntime(t, cfg)

	var to, from []*Channel
	fn := func(self *Self, index int, arg any) int {
		var factor int
		if err := to[index].Read("%d", &factor); err != nil {
			t.Errorf("worker %d: %v", index, err)
			return 1
		}
		part := make([]int, 3)
		for j := range part {
			part[j] = factor * (index*3 + j)
		}
		if err := from[index].Write("%*d", 3, part); err != nil {
			t.Errorf("worker %d: %v", index, err)
			return 1
		}
		return 0
	}
	to, from, _ = buildStar(t, r, W, fn)
	bcast, err := r.CreateBundle(UsageBroadcast, to...)
	if err != nil {
		t.Fatal(err)
	}
	gather, err := r.CreateBundle(UsageGather, from...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	if err := bcast.Broadcast("%d", 10); err != nil {
		t.Fatal(err)
	}
	result := make([]int, 3*W)
	if err := gather.Gather("%*d", 3*W, result); err != nil {
		t.Fatal(err)
	}
	if err := r.StopMain(0); err != nil {
		t.Fatal(err)
	}
	for i, v := range result {
		if v != 10*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, 10*i)
		}
	}
}

func TestScatterDistributesPortions(t *testing.T) {
	const W = 3
	cfg, _ := testConfig(t, W+1, "")
	r := mustRuntime(t, cfg)
	var to, from []*Channel
	fn := func(self *Self, index int, arg any) int {
		part := make([]float64, 2)
		if err := to[index].Read("%*lf", 2, part); err != nil {
			t.Errorf("worker %d: %v", index, err)
			return 1
		}
		if err := from[index].Write("%lf", part[0]+part[1]); err != nil {
			return 1
		}
		return 0
	}
	to, from, _ = buildStar(t, r, W, fn)
	scatter, err := r.CreateBundle(UsageScatter, to...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	data := []float64{1, 2, 10, 20, 100, 200}
	if err := scatter.Scatter("%*lf", 6, data); err != nil {
		t.Fatal(err)
	}
	sums := make([]float64, W)
	for i := 0; i < W; i++ {
		if err := from[i].Read("%lf", &sums[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.StopMain(0); err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 30, 300}
	for i := range want {
		if sums[i] != want[i] {
			t.Fatalf("sums = %v, want %v", sums, want)
		}
	}
}

func TestScatterUnevenFails(t *testing.T) {
	cfg, _ := testConfig(t, 3, "")
	r := mustRuntime(t, cfg)
	var to []*Channel
	fn := func(self *Self, index int, arg any) int {
		part := make([]int, 10)
		to[index].Read("%*d", 10, part) // never satisfied; scatter fails first
		return 0
	}
	to, _, _ = buildStar(t, r, 2, fn)
	scatter, err := r.CreateBundle(UsageScatter, to...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	if err := scatter.Scatter("%*d", 5, []int{1, 2, 3, 4, 5}); err == nil {
		t.Fatal("uneven scatter succeeded")
	}
	// Unblock workers so StopMain can finish.
	for i := range to {
		to[i].Write("%*d", 10, make([]int, 10))
	}
	r.StopMain(0)
}

func TestReduceOps(t *testing.T) {
	const W = 4
	for _, tc := range []struct {
		op   ReduceOp
		want int
	}{
		{OpSum, 1 + 2 + 3 + 4},
		{OpProd, 24},
		{OpMin, 1},
		{OpMax, 4},
	} {
		cfg, _ := testConfig(t, W+1, "")
		r := mustRuntime(t, cfg)
		var from []*Channel
		fn := func(self *Self, index int, arg any) int {
			if err := from[index].Write("%d", index+1); err != nil {
				return 1
			}
			return 0
		}
		_, from, _ = buildStar(t, r, W, fn)
		reduce, err := r.CreateBundle(UsageReduce, from...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.StartAll(); err != nil {
			t.Fatal(err)
		}
		var got int
		if err := reduce.Reduce(tc.op, "%d", &got); err != nil {
			t.Fatal(err)
		}
		if err := r.StopMain(0); err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("%v = %d, want %d", tc.op, got, tc.want)
		}
	}
}

func TestReduceArrayElementwise(t *testing.T) {
	const W = 3
	cfg, _ := testConfig(t, W+1, "")
	r := mustRuntime(t, cfg)
	var from []*Channel
	fn := func(self *Self, index int, arg any) int {
		vals := []float64{float64(index), float64(index * index), 1}
		if err := from[index].Write("%3lf", vals); err != nil {
			return 1
		}
		return 0
	}
	_, from, _ = buildStar(t, r, W, fn)
	reduce, err := r.CreateBundle(UsageReduce, from...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 3)
	if err := reduce.Reduce(OpSum, "%3lf", got); err != nil {
		t.Fatal(err)
	}
	if err := r.StopMain(0); err != nil {
		t.Fatal(err)
	}
	want := []float64{0 + 1 + 2, 0 + 1 + 4, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reduce = %v, want %v", got, want)
		}
	}
}

func TestReduceRejectsString(t *testing.T) {
	cfg, _ := testConfig(t, 3, "")
	r := mustRuntime(t, cfg)
	var from []*Channel
	fn := func(self *Self, index int, arg any) int { return 0 }
	_, from, _ = buildStar(t, r, 2, fn)
	red, err := r.CreateBundle(UsageReduce, from...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	var s string
	if err := red.Reduce(OpSum, "%s", &s); err == nil {
		t.Fatal("string reduce accepted")
	}
	r.StopMain(0)
}

func TestBundleValidation(t *testing.T) {
	cfg, _ := testConfig(t, 4, "")
	r := mustRuntime(t, cfg)
	fn := func(self *Self, index int, arg any) int { return 0 }
	p1, _ := r.CreateProcess(fn, 0, nil)
	p2, _ := r.CreateProcess(fn, 1, nil)
	c1, _ := r.CreateChannel(r.MainProc(), p1)
	c2, _ := r.CreateChannel(r.MainProc(), p2)
	c3, _ := r.CreateChannel(p1, r.MainProc())
	c4, _ := r.CreateChannel(p1, p2)

	if _, err := r.CreateBundle(UsageBroadcast); err == nil {
		t.Error("empty bundle accepted")
	}
	if _, err := r.CreateBundle(UsageBroadcast, c1, nil); err == nil {
		t.Error("nil channel accepted")
	}
	// Broadcast needs common writer endpoint; c3 is written by p1.
	if _, err := r.CreateBundle(UsageBroadcast, c1, c3); err == nil {
		t.Error("mixed-endpoint broadcast bundle accepted")
	}
	// Gather needs common reader endpoint; c4 is read by p2.
	if _, err := r.CreateBundle(UsageGather, c3, c4); err == nil {
		t.Error("mixed-endpoint gather bundle accepted")
	}
	b, err := r.CreateBundle(UsageBroadcast, c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	if b.Size() != 2 || b.Endpoint() != r.MainProc() || b.Name() != "B1" {
		t.Fatalf("bundle %+v", b)
	}
	// A channel cannot join two bundles.
	if _, err := r.CreateBundle(UsageScatter, c1); err == nil {
		t.Error("channel reused across bundles")
	}
	// Wrong usage at call time.
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	if err := b.Scatter("%*d", 2, []int{1, 2}); err == nil {
		t.Error("scatter on broadcast bundle accepted")
	}
	if _, err := b.Select(); err == nil {
		t.Error("select on broadcast bundle accepted")
	}
	if err := b.Broadcast("%d", 1); err != nil {
		t.Fatal(err)
	}
	r.StopMain(0)
}

func TestSelectAndTrySelect(t *testing.T) {
	const W = 3
	cfg, _ := testConfig(t, W+1, "")
	r := mustRuntime(t, cfg)
	var from []*Channel
	release := make(chan int, W)
	fn := func(self *Self, index int, arg any) int {
		order := <-release
		time.Sleep(time.Duration(order) * 5 * time.Millisecond)
		if err := from[index].Write("%d", index*100); err != nil {
			return 1
		}
		return 0
	}
	_, from, _ = buildStar(t, r, W, fn)
	sel, err := r.CreateBundle(UsageSelect, from...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	// Nothing ready yet.
	if idx, err := sel.TrySelect(); err != nil || idx != -1 {
		t.Fatalf("TrySelect on empty = %d, %v", idx, err)
	}
	// Workers publish in a known order: 1 first, then 0, then 2.
	release <- 1 // index 0 waits 5ms... order by value sent
	release <- 0
	release <- 2
	seen := map[int]bool{}
	for n := 0; n < W; n++ {
		idx, err := sel.Select()
		if err != nil {
			t.Fatal(err)
		}
		if idx < 0 || idx >= W || seen[idx] && false {
			t.Fatalf("select idx %d", idx)
		}
		var v int
		if err := from[idx].Read("%d", &v); err != nil {
			t.Fatal(err)
		}
		if v != idx*100 {
			t.Fatalf("read %d from channel %d", v, idx)
		}
		seen[idx] = true
	}
	if len(seen) != W {
		t.Fatalf("selected %v, want all %d channels", seen, W)
	}
	if err := r.StopMain(0); err != nil {
		t.Fatal(err)
	}
}

// The integrated deadlock detector: a classic read/read cycle between two
// workers is detected, reported with source locations, and the program is
// aborted rather than hanging.
func TestDeadlockDetectedReadCycle(t *testing.T) {
	cfg, errBuf := testConfig(t, 4, "d")
	cfg.DeadlockGrace = 30 * time.Millisecond
	r := mustRuntime(t, cfg)
	var c12, c21 *Channel
	fn1 := func(self *Self, index int, arg any) int {
		var v int
		c21.Read("%d", &v) // waits for P2, who waits for P1
		return 0
	}
	fn2 := func(self *Self, index int, arg any) int {
		var v int
		c12.Read("%d", &v)
		return 0
	}
	p1, _ := r.CreateProcess(fn1, 0, nil)
	p2, _ := r.CreateProcess(fn2, 1, nil)
	var err error
	if c12, err = r.CreateChannel(p1, p2); err != nil {
		t.Fatal(err)
	}
	if c21, err = r.CreateChannel(p2, p1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	err = r.StopMain(0)
	if err == nil {
		t.Fatal("deadlocked program finished cleanly")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("StopMain error: %v", err)
	}
	rep := r.DeadlockReport()
	if rep == nil || len(rep.Procs) != 2 {
		t.Fatalf("report %+v", rep)
	}
	if !strings.Contains(errBuf.String(), "DEADLOCK") {
		t.Errorf("no deadlock diagnostic on stderr: %q", errBuf.String())
	}
	if !strings.Contains(rep.String(), "collective_test.go") {
		t.Errorf("report lacks source location: %s", rep.String())
	}
}

// Reading from a process that already exited is the other classic novice
// deadlock.
func TestDeadlockReadFromExited(t *testing.T) {
	cfg, _ := testConfig(t, 3, "d")
	cfg.DeadlockGrace = 30 * time.Millisecond
	r := mustRuntime(t, cfg)
	fn := func(self *Self, index int, arg any) int {
		return 0 // exits immediately, writing nothing
	}
	p, _ := r.CreateProcess(fn, 0, nil)
	ch, err := r.CreateChannel(p, r.MainProc())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	var v int
	readErr := ch.Read("%d", &v)
	if readErr == nil {
		t.Fatal("read from exited writer succeeded")
	}
	stopErr := r.StopMain(0)
	if stopErr == nil || !strings.Contains(stopErr.Error(), "deadlock") {
		t.Fatalf("StopMain: %v", stopErr)
	}
}

// A PI_Select blocked in its sweep must return an error once another
// process calls PI_Abort, not poll an aborted world forever.
func TestSelectReleasedByAbort(t *testing.T) {
	cfg, _ := testConfig(t, 3, "")
	r := mustRuntime(t, cfg)
	fn := func(self *Self, index int, arg any) int {
		if index == 0 {
			time.Sleep(10 * time.Millisecond) // let PI_MAIN block in the select
			self.Abort(5, "giving up")
		}
		return 0
	}
	_, from, _ := buildStar(t, r, 2, fn)
	sel, err := r.CreateBundle(UsageSelect, from...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	if idx, err := sel.Select(); err == nil {
		t.Fatalf("select in an aborted world returned %d", idx)
	}
	if err := r.StopMain(0); err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("StopMain: %v", err)
	}
}

// A PI_Select whose writers all exited without writing is the any-of form
// of reading from an exited process: the detector must release it with an
// error and report the deadlock.
func TestDeadlockSelectFromExited(t *testing.T) {
	cfg, _ := testConfig(t, 4, "d") // PI_MAIN, two writers, the detector
	cfg.DeadlockGrace = 30 * time.Millisecond
	r := mustRuntime(t, cfg)
	fn := func(self *Self, index int, arg any) int {
		return 0 // exits immediately, writing nothing
	}
	_, from, _ := buildStar(t, r, 2, fn)
	sel, err := r.CreateBundle(UsageSelect, from...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	if idx, err := sel.Select(); err == nil {
		t.Fatalf("select over exited writers returned %d", idx)
	}
	if err := r.StopMain(0); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("StopMain: %v", err)
	}
}

// Buffered data from an exited writer must NOT be flagged: the message is
// already in flight.
func TestNoFalseDeadlockOnBufferedData(t *testing.T) {
	cfg, _ := testConfig(t, 3, "d")
	r := mustRuntime(t, cfg)
	fn := func(self *Self, index int, arg any) int {
		arg.(*Channel).Write("%d", 99) // eager; exits immediately after
		return 0
	}
	p, _ := r.CreateProcess(fn, 0, nil)
	ch, err := r.CreateChannel(p, r.MainProc())
	if err != nil {
		t.Fatal(err)
	}
	p.arg = ch
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // ensure writer has exited
	var v int
	if err := ch.Read("%d", &v); err != nil {
		t.Fatal(err)
	}
	if v != 99 {
		t.Fatalf("v = %d", v)
	}
	if err := r.StopMain(0); err != nil {
		t.Fatal(err)
	}
}

func TestChannelHasData(t *testing.T) {
	cfg, _ := testConfig(t, 2, "")
	r := mustRuntime(t, cfg)
	ready := make(chan struct{})
	fn := func(self *Self, index int, arg any) int {
		<-ready
		arg.(*Channel).Write("%d", 1)
		return 0
	}
	p, _ := r.CreateProcess(fn, 0, nil)
	ch, _ := r.CreateChannel(p, r.MainProc())
	p.arg = ch
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	if has, err := ch.HasData(); err != nil || has {
		t.Fatalf("HasData on empty channel = %v, %v", has, err)
	}
	close(ready)
	deadline := time.Now().Add(2 * time.Second)
	for {
		has, err := ch.HasData()
		if err != nil {
			t.Fatal(err)
		}
		if has {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("HasData never became true")
		}
	}
	var v int
	ch.Read("%d", &v)
	r.StopMain(0)
}

// The arrow-spread ablation at the core level: with a coarse-resolution
// clock and spread disabled, a broadcast fan-out produces Equal Drawables
// warnings; the default 1 ms spread eliminates them (Section III.C).
func TestArrowSpreadEliminatesEqualDrawables(t *testing.T) {
	run := func(spread time.Duration) int {
		const W = 4
		cfg, _ := testConfig(t, W+1, "j")
		cfg.ArrowSpread = spread
		// 1 ms clock resolution, like a coarse MPI_Wtime.
		cfg.Clocks = coarseClocks(W+1, 1e-3)
		r := mustRuntime(t, cfg)
		var to []*Channel
		fn := func(self *Self, index int, arg any) int {
			var v int
			if err := to[index].Read("%d", &v); err != nil {
				return 1
			}
			return 0
		}
		to, _, _ = buildStar(t, r, W, fn)
		b, err := r.CreateBundle(UsageBroadcast, to...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.StartAll(); err != nil {
			t.Fatal(err)
		}
		if err := b.Broadcast("%d", 42); err != nil {
			t.Fatal(err)
		}
		if err := r.StopMain(0); err != nil {
			t.Fatal(err)
		}
		raw, err := os.Open(cfg.JumpshotPath)
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		cf, err := clog2.Read(raw)
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := slog2.Convert(cf, slog2.ConvertOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return rep.EqualDrawables
	}
	if got := run(-1); got == 0 {
		t.Error("no Equal Drawables with spread disabled and coarse clocks; expected collisions")
	}
	if got := run(2 * time.Millisecond); got != 0 {
		t.Errorf("Equal Drawables = %d with spread enabled, want 0", got)
	}
}
