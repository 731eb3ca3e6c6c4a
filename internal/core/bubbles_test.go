package core

import (
	"testing"

	"repro/internal/jumpshot"
	"repro/vis"
)

// The optional functions are "treated as independent events ...
// represented as bubbles with their return values shown": verify that
// PI_ChannelHasData, PI_TrySelect, PI_Log, PI_StartTime and PI_EndTime all
// land in the visual log as events with meaningful cargo.
func TestOptionalFunctionsAppearAsBubbles(t *testing.T) {
	cfg, _ := testConfig(t, 3, "j")
	r := mustRuntime(t, cfg)
	var ch1, ch2 *Channel
	release := make(chan struct{})
	fn := func(self *Self, index int, arg any) int {
		<-release
		if index == 0 {
			ch1.Write("%d", 1)
		} else {
			ch2.Write("%d", 2)
		}
		return 0
	}
	p1, _ := r.CreateProcess(fn, 0, nil)
	p2, _ := r.CreateProcess(fn, 1, nil)
	var err error
	if ch1, err = r.CreateChannel(p1, r.MainProc()); err != nil {
		t.Fatal(err)
	}
	if ch2, err = r.CreateChannel(p2, r.MainProc()); err != nil {
		t.Fatal(err)
	}
	sel, err := r.CreateBundle(UsageSelect, ch1, ch2)
	if err != nil {
		t.Fatal(err)
	}
	self, err := r.StartAll()
	if err != nil {
		t.Fatal(err)
	}

	if has, _ := ch1.HasData(); has {
		t.Fatal("data before release")
	}
	if idx, _ := sel.TrySelect(); idx != -1 {
		t.Fatal("try-select hit before release")
	}
	t0 := self.StartTime()
	self.Log("between the bubbles")
	t1 := self.EndTime()
	if t1 < t0 {
		t.Fatalf("time went backwards: %v .. %v", t0, t1)
	}
	close(release)
	for got := 0; got < 2; {
		idx, err := sel.Select()
		if err != nil {
			t.Fatal(err)
		}
		var v int
		if idx == 0 {
			ch1.Read("%d", &v)
		} else {
			ch2.Read("%d", &v)
		}
		got++
	}
	if err := r.StopMain(0); err != nil {
		t.Fatal(err)
	}

	f, _, err := vis.ConvertFile(cfg.JumpshotPath, vis.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	legend := jumpshot.Legend(f, f.Start, f.End)
	counts := map[string]int{}
	for _, e := range legend {
		counts[e.Name] = e.Count
	}
	for name, want := range map[string]int{
		"PI_ChannelHasData": 1,
		"PI_TrySelect":      1,
		"PI_Log":            1,
		"PI_StartTime":      1,
		"PI_EndTime":        1,
		"PI_Select":         2,
	} {
		if counts[name] != want {
			t.Errorf("%s count = %d, want %d", name, counts[name], want)
		}
	}
	// Bubble popups carry return values / line numbers.
	for _, opts := range []jumpshot.SearchOptions{
		{Name: "PI_ChannelHasData", Rank: -1, Cargo: "has: false"},
		{Name: "PI_TrySelect", Rank: -1, Cargo: "ready: -1"},
	} {
		if hits := jumpshot.Search(f, opts); len(hits) != 1 {
			t.Errorf("search %+v: %d hits", opts, len(hits))
		}
	}
	// PI_Select's popup gives the ready channel index.
	selHits := jumpshot.Search(f, jumpshot.SearchOptions{Name: "PI_Select", Rank: -1})
	okPopup := 0
	for _, h := range selHits {
		if h.Kind == "state" && (h.Detail != "") {
			okPopup++
		}
	}
	if okPopup != 2 {
		t.Errorf("select states with popups: %d, want 2 (%v)", okPopup, selHits)
	}
}
