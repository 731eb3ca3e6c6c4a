package pilot_test

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/jumpshot"
	"repro/internal/slog2"
	"repro/pilot"
	"repro/vis"
)

// The paper's Fig. 3 program ("lab 2") through the public API, end to end
// into the visualization pipeline.
func TestLab2ThroughPublicAPI(t *testing.T) {
	const W = 5
	const NUM = 10000
	dir := t.TempDir()
	clogPath := filepath.Join(dir, "lab2.clog2")

	var errBuf bytes.Buffer
	cfg := pilot.Config{
		NumProcs:     W + 1,
		Services:     "j",
		CheckLevel:   3,
		JumpshotPath: clogPath,
		Stderr:       &errBuf,
	}
	pi, err := pilot.Configure(cfg)
	if err != nil {
		t.Fatal(err)
	}

	toWorker := make([]*pilot.Channel, W)
	result := make([]*pilot.Channel, W)
	workerFunc := func(self *pilot.Self, index int, arg any) int {
		var myshare int
		if err := toWorker[index].Read("%d", &myshare); err != nil {
			t.Errorf("worker %d: %v", index, err)
			return 1
		}
		buff := make([]int, myshare)
		if err := toWorker[index].Read("%*d", myshare, buff); err != nil {
			t.Errorf("worker %d: %v", index, err)
			return 1
		}
		sum := 0
		for _, v := range buff {
			sum += v
		}
		if err := result[index].Write("%d", sum); err != nil {
			t.Errorf("worker %d: %v", index, err)
			return 1
		}
		return 0
	}
	for i := 0; i < W; i++ {
		w, err := pi.CreateProcess(workerFunc, i, nil)
		if err != nil {
			t.Fatal(err)
		}
		if toWorker[i], err = pi.CreateChannel(pi.MainProc(), w); err != nil {
			t.Fatal(err)
		}
		if result[i], err = pi.CreateChannel(w, pi.MainProc()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pi.StartAll(); err != nil {
		t.Fatal(err)
	}

	numbers := make([]int, NUM)
	want := 0
	for i := range numbers {
		numbers[i] = i % 97
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
	if err := pi.StopMain(0); err != nil {
		t.Fatal(err)
	}
	if total != want {
		t.Fatalf("grand total = %d, want %d", total, want)
	}

	// Visualize: the full pipeline must run clean and show lab2's shape.
	slogPath := filepath.Join(dir, "lab2.slog2")
	svgPath := filepath.Join(dir, "lab2.svg")
	f, rep, err := vis.Pipeline(clogPath, slogPath, svgPath, vis.ConvertOptions{}, vis.View{Title: "lab2"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.UnmatchedSends != 0 || rep.UnmatchedRecvs != 0 || rep.NestingErrors != 0 {
		t.Fatalf("conversion not clean: %+v\n%v", rep, rep.Warnings)
	}
	// Fig. 3 structure: 15 arrows (5 workers × (2 to + 1 from)), 10 reads
	// on workers + 5 reads on main, 10 writes on main + 5 on workers.
	legend := jumpshot.Legend(f, f.Start, f.End)
	byName := map[string]jumpshot.LegendEntry{}
	for _, e := range legend {
		byName[e.Name] = e
	}
	if got := byName["PI_Read"].Count; got != 15 {
		t.Errorf("PI_Read count = %d, want 15", got)
	}
	if got := byName["PI_Write"].Count; got != 15 {
		t.Errorf("PI_Write count = %d, want 15", got)
	}
	if got := byName["Compute"].Count; got != 6 {
		t.Errorf("Compute count = %d, want 6 timelines", got)
	}
	hits := jumpshot.Search(f, jumpshot.SearchOptions{Name: "arrow", Rank: -1})
	if len(hits) != 15 {
		t.Errorf("arrows = %d, want 15", len(hits))
	}
	ascii := jumpshot.RenderASCII(f, vis.View{Width: 80})
	if !strings.Contains(ascii, "PI_MAIN") {
		t.Errorf("ascii render:\n%s", ascii)
	}
	if rdSLOG, err := slog2.ReadFile(slogPath); err != nil || rdSLOG.NumRanks != f.NumRanks {
		t.Fatalf("slog2 roundtrip: %v", err)
	}
}

func TestSelfOperations(t *testing.T) {
	cfg := pilot.Config{NumProcs: 2, JumpshotPath: filepath.Join(t.TempDir(), "x.clog2")}
	pi, err := pilot.Configure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	_, err = pi.CreateProcess(func(self *pilot.Self, index int, arg any) int {
		defer close(done)
		if self.Rank() != 1 {
			t.Errorf("rank = %d", self.Rank())
		}
		self.SetName("Worker")
		if self.Name() != "Worker" {
			t.Errorf("name = %q", self.Name())
		}
		t0 := self.StartTime()
		t1 := self.EndTime()
		if t1 < t0 {
			t.Errorf("EndTime %v < StartTime %v", t1, t0)
		}
		if err := self.Log("hello from worker"); err != nil {
			t.Error(err)
		}
		if self.IsLogging(pilot.SvcJumpshot) {
			t.Error("IsLogging(j) true without service")
		}
		return 0
	}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pi.StartAll(); err != nil {
		t.Fatal(err)
	}
	<-done
	if err := pi.StopMain(0); err != nil {
		t.Fatal(err)
	}
}
