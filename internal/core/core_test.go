package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/slog2"
)

// testConfig returns a Config writing logs into a temp dir, with warnings
// captured.
func testConfig(t *testing.T, nprocs int, services string) (Config, *bytes.Buffer) {
	t.Helper()
	dir := t.TempDir()
	var errBuf bytes.Buffer
	return Config{
		NumProcs:     nprocs,
		Services:     services,
		CheckLevel:   3,
		JumpshotPath: filepath.Join(dir, "test.clog2"),
		NativePath:   filepath.Join(dir, "test.log"),
		ArrowSpread:  -1, // keep tests fast; ablation tests opt in
		Stderr:       &errBuf,
	}, &errBuf
}

func mustRuntime(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewRuntime(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := NewRuntime(Config{NumProcs: 2, Services: "z"}); err == nil {
		t.Error("bad service letter accepted")
	}
	if _, err := NewRuntime(Config{NumProcs: 2, CheckLevel: 9}); err == nil {
		t.Error("bad check level accepted")
	}
	if _, err := NewRuntime(Config{NumProcs: 1, Services: "d"}); err == nil {
		t.Error("service process with 1 rank accepted")
	}
}

func TestParseArgs(t *testing.T) {
	cfg := Config{}
	rest, err := ParseArgs(&cfg, []string{"-pisvc=cj", "app-flag", "-picheck=2", "-piprocs=8", "input.csv"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Services != "cj" || cfg.CheckLevel != 2 || cfg.NumProcs != 8 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if len(rest) != 2 || rest[0] != "app-flag" || rest[1] != "input.csv" {
		t.Fatalf("rest = %v", rest)
	}
	if _, err := ParseArgs(&cfg, []string{"-picheck=x"}); err == nil {
		t.Error("bad -picheck accepted")
	}
	if _, err := ParseArgs(&cfg, []string{"-piprocs=x"}); err == nil {
		t.Error("bad -piprocs accepted")
	}
}

// The lab2 shape: main distributes work sizes and arrays, workers sum and
// report. Exercises %d, %*d and the whole lifecycle.
func TestMasterWorkerSum(t *testing.T) {
	const W = 5
	const NUM = 1000
	cfg, _ := testConfig(t, W+1, "")
	r := mustRuntime(t, cfg)

	toWorker := make([]*Channel, W)
	result := make([]*Channel, W)
	workerFunc := func(self *Self, index int, arg any) int {
		var myshare int
		if err := toWorker[index].Read("%d", &myshare); err != nil {
			t.Errorf("worker %d read size: %v", index, err)
			return 1
		}
		buf := make([]int, myshare)
		if err := toWorker[index].Read("%*d", myshare, buf); err != nil {
			t.Errorf("worker %d read data: %v", index, err)
			return 1
		}
		sum := 0
		for _, v := range buf {
			sum += v
		}
		if err := result[index].Write("%d", sum); err != nil {
			t.Errorf("worker %d write: %v", index, err)
			return 1
		}
		return 0
	}
	for i := 0; i < W; i++ {
		p, err := r.CreateProcess(workerFunc, i, nil)
		if err != nil {
			t.Fatal(err)
		}
		var errc error
		toWorker[i], errc = r.CreateChannel(r.MainProc(), p)
		if errc != nil {
			t.Fatal(errc)
		}
		result[i], errc = r.CreateChannel(p, r.MainProc())
		if errc != nil {
			t.Fatal(errc)
		}
	}
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}

	numbers := make([]int, NUM)
	want := 0
	for i := range numbers {
		numbers[i] = i * 3
		want += numbers[i]
	}
	for i := 0; i < W; i++ {
		portion := NUM / W
		if i == W-1 {
			portion += NUM % W
		}
		if err := toWorker[i].Write("%d", portion); err != nil {
			t.Fatal(err)
		}
		if err := toWorker[i].Write("%*d", portion, numbers[i*(NUM/W):]); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for i := 0; i < W; i++ {
		var sum int
		if err := result[i].Read("%d", &sum); err != nil {
			t.Fatal(err)
		}
		total += sum
	}
	if err := r.StopMain(0); err != nil {
		t.Fatal(err)
	}
	if total != want {
		t.Fatalf("total = %d, want %d", total, want)
	}
}

func TestAllScalarKindsAcrossChannel(t *testing.T) {
	cfg, _ := testConfig(t, 2, "")
	r := mustRuntime(t, cfg)
	var (
		gotC  byte
		gotHD int16
		gotD  int
		gotLD int64
		gotU  uint
		gotF  float32
		gotLF float64
		gotS  string
		gotV  []float64
	)
	p, err := r.CreateProcess(func(self *Self, index int, arg any) int {
		ch := arg.(*Channel)
		if err := ch.Write("%c %hd %d %ld %u %f %lf %s %^lf",
			byte('z'), int16(-7), 123, int64(1)<<40, uint(9),
			float32(1.5), 2.25, "hello", []float64{3, 4, 5}); err != nil {
			t.Errorf("write: %v", err)
		}
		return 0
	}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := r.CreateChannel(p, r.MainProc())
	if err != nil {
		t.Fatal(err)
	}
	p.arg = ch
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	if err := ch.Read("%c %hd %d %ld %u %f %lf %s %^lf",
		&gotC, &gotHD, &gotD, &gotLD, &gotU, &gotF, &gotLF, &gotS, &gotV); err != nil {
		t.Fatal(err)
	}
	if err := r.StopMain(0); err != nil {
		t.Fatal(err)
	}
	if gotC != 'z' || gotHD != -7 || gotD != 123 || gotLD != 1<<40 ||
		gotU != 9 || gotF != 1.5 || gotLF != 2.25 || gotS != "hello" ||
		len(gotV) != 3 || gotV[0] != 3 {
		t.Fatalf("values corrupted: %c %d %d %d %d %v %v %q %v",
			gotC, gotHD, gotD, gotLD, gotU, gotF, gotLF, gotS, gotV)
	}
}

func TestPhaseEnforcement(t *testing.T) {
	cfg, _ := testConfig(t, 3, "")
	r := mustRuntime(t, cfg)
	p, _ := r.CreateProcess(func(self *Self, index int, arg any) int { return 0 }, 0, nil)
	ch, _ := r.CreateChannel(r.MainProc(), p)

	// I/O before StartAll fails.
	if err := ch.Write("%d", 1); err == nil {
		t.Error("Write in configuration phase succeeded")
	}
	if err := ch.Read("%d", new(int)); err == nil {
		t.Error("Read in configuration phase succeeded")
	}
	if err := r.StopMain(0); err == nil {
		t.Error("StopMain in configuration phase succeeded")
	}
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	// Configuration calls after StartAll fail.
	if _, err := r.CreateProcess(func(*Self, int, any) int { return 0 }, 0, nil); err == nil {
		t.Error("CreateProcess in execution phase succeeded")
	}
	if _, err := r.CreateChannel(r.MainProc(), p); err == nil {
		t.Error("CreateChannel in execution phase succeeded")
	}
	if _, err := r.StartAll(); err == nil {
		t.Error("second StartAll succeeded")
	}
	if err := ch.Write("%d", 7); err != nil {
		t.Fatal(err)
	}
	// Drain so the worker can exit... the worker never reads; eager send is fine.
	if err := r.StopMain(0); err != nil {
		t.Fatal(err)
	}
	if err := r.StopMain(0); err == nil {
		t.Error("second StopMain succeeded")
	}
}

func TestChannelValidation(t *testing.T) {
	cfg, _ := testConfig(t, 3, "")
	r := mustRuntime(t, cfg)
	p, _ := r.CreateProcess(func(*Self, int, any) int { return 0 }, 0, nil)
	if _, err := r.CreateChannel(nil, p); err == nil {
		t.Error("nil endpoint accepted")
	}
	if _, err := r.CreateChannel(p, p); err == nil {
		t.Error("self-channel accepted")
	}
	cfg2, _ := testConfig(t, 2, "")
	r2 := mustRuntime(t, cfg2)
	if _, err := r2.CreateChannel(r.MainProc(), r2.MainProc()); err == nil {
		t.Error("cross-runtime channel accepted")
	}
}

func TestProcessLimitEnforced(t *testing.T) {
	cfg, _ := testConfig(t, 3, "d") // 3 ranks: main + 1 worker + svc
	r := mustRuntime(t, cfg)
	if got := r.AvailableProcs(); got != 1 {
		t.Fatalf("AvailableProcs = %d, want 1", got)
	}
	if _, err := r.CreateProcess(func(*Self, int, any) int { return 0 }, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateProcess(func(*Self, int, any) int { return 0 }, 1, nil); err == nil {
		t.Error("process beyond limit accepted")
	}
	if got := r.AvailableProcs(); got != 0 {
		t.Fatalf("AvailableProcs = %d, want 0", got)
	}
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	if err := r.StopMain(0); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultNames(t *testing.T) {
	cfg, _ := testConfig(t, 3, "")
	r := mustRuntime(t, cfg)
	if got := r.MainProc().Name(); got != "PI_MAIN" {
		t.Errorf("main name %q", got)
	}
	p, _ := r.CreateProcess(func(*Self, int, any) int { return 0 }, 0, nil)
	if got := p.Name(); got != "P1" {
		t.Errorf("worker name %q", got)
	}
	ch, _ := r.CreateChannel(r.MainProc(), p)
	if got := ch.Name(); got != "C1" {
		t.Errorf("channel name %q", got)
	}
	ch.SetName("work")
	if got := ch.Name(); got != "work" {
		t.Errorf("renamed channel %q", got)
	}
	p.SetName("Decompressor")
	if got := p.Name(); got != "Decompressor" {
		t.Errorf("renamed process %q", got)
	}
}

// Error-check level 2: reader/writer format mismatch is reported at the
// reader with both formats named.
func TestLevel2FormatMismatch(t *testing.T) {
	cfg, _ := testConfig(t, 2, "")
	cfg.CheckLevel = 2
	r := mustRuntime(t, cfg)
	p, _ := r.CreateProcess(func(self *Self, index int, arg any) int {
		arg.(*Channel).Write("%d", 42)
		return 0
	}, 0, nil)
	ch, _ := r.CreateChannel(p, r.MainProc())
	p.arg = ch
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	var f float64
	err := ch.Read("%lf", &f)
	if err == nil {
		t.Fatal("format mismatch not detected at level 2")
	}
	if !strings.Contains(err.Error(), "%d") || !strings.Contains(err.Error(), "%lf") {
		t.Fatalf("mismatch error lacks formats: %v", err)
	}
	r.StopMain(0)
}

// At level 0/1 the same mismatch slips past the format check and is caught
// only by the payload-size check in decode.
func TestLevel0SkipsFormatCheck(t *testing.T) {
	cfg, _ := testConfig(t, 2, "")
	cfg.CheckLevel = 0
	r := mustRuntime(t, cfg)
	p, _ := r.CreateProcess(func(self *Self, index int, arg any) int {
		arg.(*Channel).Write("%d", 42) // 8 bytes on the wire
		return 0
	}, 0, nil)
	ch, _ := r.CreateChannel(p, r.MainProc())
	p.arg = ch
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	var f float64
	// Same wire size: decodes without complaint at level 0 (garbage in,
	// garbage out — exactly what the check level buys you).
	if err := ch.Read("%lf", &f); err != nil {
		t.Fatalf("level 0 read rejected: %v", err)
	}
	r.StopMain(0)
}

func TestNoMPEWarning(t *testing.T) {
	cfg, errBuf := testConfig(t, 2, "j")
	cfg.NoMPE = true
	r := mustRuntime(t, cfg)
	if !strings.Contains(errBuf.String(), "not available") {
		t.Fatalf("missing MPE warning, stderr: %q", errBuf.String())
	}
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	if err := r.StopMain(0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(cfg.JumpshotPath); !os.IsNotExist(err) {
		t.Fatal("jumpshot log written despite NoMPE")
	}
}

// End-to-end visual log: run a program with -pisvc=j, read the CLOG-2,
// convert to SLOG-2, and verify the figure-level structure.
func TestJumpshotLogEndToEnd(t *testing.T) {
	cfg, _ := testConfig(t, 3, "j")
	r := mustRuntime(t, cfg)
	chans := make([]*Channel, 2)
	for i := 0; i < 2; i++ {
		p, err := r.CreateProcess(func(self *Self, index int, arg any) int {
			var v int
			if err := chans[index].Read("%d", &v); err != nil {
				return 1
			}
			return 0
		}, i, nil)
		if err != nil {
			t.Fatal(err)
		}
		chans[i], err = r.CreateChannel(r.MainProc(), p)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := chans[i].Write("%d", i*10); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.StopMain(0); err != nil {
		t.Fatal(err)
	}
	if r.WrapUpTime() <= 0 {
		t.Error("wrap-up time not measured")
	}

	raw, err := os.Open(cfg.JumpshotPath)
	if err != nil {
		t.Fatalf("no CLOG-2 produced: %v", err)
	}
	defer raw.Close()
	sf, rep, err := slog2.ConvertReader(raw, slog2.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if rep.NestingErrors != 0 || rep.UnmatchedSends != 0 || rep.UnmatchedRecvs != 0 {
		t.Fatalf("conversion problems: %+v\n%v", rep, rep.Warnings)
	}
	states, arrows, _ := sf.All()
	// Expect: Configure state, 3 Compute states (main + 2 workers),
	// 2 Write states, 2 Read states; 2 arrows.
	count := func(name string) int {
		idx := sf.CategoryIndex(name)
		n := 0
		for _, s := range states {
			if s.Cat == idx {
				n++
			}
		}
		return n
	}
	if got := count("PI_Configure"); got != 1 {
		t.Errorf("Configure states = %d, want 1", got)
	}
	if got := count("Compute"); got != 3 {
		t.Errorf("Compute states = %d, want 3", got)
	}
	if got := count("PI_Write"); got != 2 {
		t.Errorf("Write states = %d, want 2", got)
	}
	if got := count("PI_Read"); got != 2 {
		t.Errorf("Read states = %d, want 2", got)
	}
	if len(arrows) != 2 {
		t.Errorf("arrows = %d, want 2", len(arrows))
	}
	// Reads nest within their process's Compute state.
	readIdx := sf.CategoryIndex("PI_Read")
	compIdx := sf.CategoryIndex("Compute")
	for _, s := range states {
		if s.Cat != readIdx {
			continue
		}
		nested := false
		for _, c := range states {
			if c.Cat == compIdx && c.Rank == s.Rank && c.Start <= s.Start && s.End <= c.End {
				nested = true
			}
		}
		if !nested {
			t.Errorf("PI_Read on rank %d not nested in Compute", s.Rank)
		}
	}
}

// PI_Abort loses the MPE log but the native log survives — Section III.B
// and the paper's conclusion about Pilot's existing native log.
func TestAbortLosesMPELogButNativeSurvives(t *testing.T) {
	cfg, errBuf := testConfig(t, 3, "cj")
	r := mustRuntime(t, cfg)
	p, err := r.CreateProcess(func(self *Self, index int, arg any) int {
		self.Log("about to abort")
		time.Sleep(10 * time.Millisecond) // let the log line travel
		self.Abort(7, "fatal problem detected")
		return 1
	}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = p
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	err = r.StopMain(0)
	if err == nil {
		t.Fatal("StopMain after abort returned nil")
	}
	if !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("unexpected StopMain error: %v", err)
	}
	if !r.Aborted() {
		t.Fatal("Aborted() = false")
	}
	if _, statErr := os.Stat(cfg.JumpshotPath); !os.IsNotExist(statErr) {
		t.Error("MPE log exists despite abort")
	}
	if !strings.Contains(errBuf.String(), "MPE log lost") {
		t.Errorf("missing lost-log warning: %q", errBuf.String())
	}
	native, readErr := os.ReadFile(cfg.NativePath)
	if readErr != nil {
		t.Fatalf("native log missing: %v", readErr)
	}
	if !strings.Contains(string(native), "PI_Log") {
		t.Errorf("native log lacks entries: %q", native)
	}
}

func TestNativeLogFormat(t *testing.T) {
	cfg, _ := testConfig(t, 3, "c")
	r := mustRuntime(t, cfg)
	p, _ := r.CreateProcess(func(self *Self, index int, arg any) int {
		var v int
		arg.(*Channel).Read("%d", &v)
		return 0
	}, 0, nil)
	ch, _ := r.CreateChannel(r.MainProc(), p)
	p.arg = ch
	ch.SetName("jobs")
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	if err := ch.Write("%d", 5); err != nil {
		t.Fatal(err)
	}
	if err := r.StopMain(0); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.NativePath)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{"PI_Write", "PI_Read", "jobs", "P1 exited"} {
		if !strings.Contains(text, want) {
			t.Errorf("native log missing %q:\n%s", want, text)
		}
	}
	// Every line carries an arrival timestamp.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if !strings.HasPrefix(line, "[") {
			t.Errorf("line without timestamp: %q", line)
		}
	}
}

func TestWorkerPanicAborts(t *testing.T) {
	cfg, errBuf := testConfig(t, 2, "")
	r := mustRuntime(t, cfg)
	r.CreateProcess(func(self *Self, index int, arg any) int {
		panic("worker exploded")
	}, 0, nil)
	if _, err := r.StartAll(); err != nil {
		t.Fatal(err)
	}
	if err := r.StopMain(0); err == nil {
		t.Fatal("StopMain after worker panic returned nil")
	}
	if !strings.Contains(errBuf.String(), "panicked") {
		t.Errorf("missing panic diagnostic: %q", errBuf.String())
	}
}
