package thumbnail

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/jpeglite"
	"repro/internal/jumpshot"
	"repro/vis"
)

func smallConfig(t *testing.T, workers int, services string) Config {
	t.Helper()
	dir := t.TempDir()
	return Config{
		Workers:   workers,
		NumImages: 12,
		ImageW:    64,
		ImageH:    48,
		Quality:   70,
		Seed:      42,
		Core: core.Config{
			Services:     services,
			CheckLevel:   3,
			JumpshotPath: filepath.Join(dir, "thumb.clog2"),
			NativePath:   filepath.Join(dir, "thumb.log"),
			ArrowSpread:  -1,
		},
	}
}

func TestPipelineProducesAllThumbnails(t *testing.T) {
	res, err := Run(smallConfig(t, 3, ""))
	if err != nil {
		t.Fatal(err)
	}
	if res.Thumbnails != 12 {
		t.Fatalf("thumbnails = %d, want 12", res.Thumbnails)
	}
	if res.Elapsed <= 0 {
		t.Error("no elapsed time measured")
	}
	if res.OutputBytes <= 0 || res.InputBytes <= 0 {
		t.Error("byte counters empty")
	}
	// Thumbnails must be much smaller than inputs (32% area / every 3rd
	// pixel / recompressed).
	if res.OutputBytes >= res.InputBytes {
		t.Errorf("thumbnails (%d B) not smaller than inputs (%d B)", res.OutputBytes, res.InputBytes)
	}
}

func TestPipelineWritesToDisk(t *testing.T) {
	cfg := smallConfig(t, 2, "")
	cfg.OutDir = t.TempDir()
	cfg.NumImages = 5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(cfg.OutDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("wrote %d files, want 5", len(entries))
	}
	// Each written thumbnail decodes, with the expected dimensions.
	data, err := os.ReadFile(filepath.Join(cfg.OutDir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	im, err := jpeglite.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if im.W <= 0 || im.W >= 64 || im.H <= 0 || im.H >= 48 {
		t.Errorf("thumbnail dims %dx%d not reduced from 64x48", im.W, im.H)
	}
	_ = res
}

// The paper's Fig. 1 property: with -pisvc=j, a complex run of thousands
// of Pilot calls converts from CLOG-2 to SLOG-2 without conversion
// errors, and compute dominates I/O (Fig. 2: "most of the execution time
// is used for computation").
func TestPipelineVisualLogClean(t *testing.T) {
	cfg := smallConfig(t, 3, "j")
	cfg.NumImages = 30
	cfg.ImageW, cfg.ImageH = 128, 96
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WrapUp <= 0 {
		t.Error("no wrap-up time measured with MPE logging on")
	}
	f, rep, err := vis.ConvertFile(cfg.Core.JumpshotPath, vis.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NestingErrors != 0 || rep.UnmatchedSends != 0 || rep.UnmatchedRecvs != 0 {
		t.Fatalf("conversion not clean: %+v", rep)
	}
	if rep.States < 100 {
		t.Errorf("only %d states for a 30-image run", rep.States)
	}
	frac := jumpshot.CategoryFraction(f, "Compute", f.Start, f.End)
	if frac < 0.5 {
		t.Errorf("compute fraction %.2f; pipeline should be compute-dominated", frac)
	}
	// Every rank timeline present: main + C + 3 Ds.
	legend := jumpshot.Legend(f, f.Start, f.End)
	for _, e := range legend {
		if e.Name == "Compute" && e.Count != 5 {
			t.Errorf("compute states = %d, want 5", e.Count)
		}
	}
}

// Scaling shape: the decompressors work side by side, which is what makes
// the Section III.E table (14.42 s at 10 workers vs 30.97 s at 5) possible.
// Read off the run's own log instead of a stopwatch: with 4 workers more
// than one D rank has its Compute state open at the same instant, with 1
// worker never.
func TestPipelineScalesWithWorkers(t *testing.T) {
	openTogether := func(workers int) int {
		cfg := smallConfig(t, workers, "j")
		cfg.NumImages = 40
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		f, _, err := vis.ConvertFile(cfg.Core.JumpshotPath, vis.ConvertOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Sweep the D ranks' (2 and up) Compute states: +1 at a start,
		// -1 at an end, ends first where the two coincide.
		type edge struct {
			at   float64
			step int
		}
		var edges []edge
		states, _, _ := f.All()
		for _, s := range states {
			if s.Rank >= 2 && f.Categories[s.Cat].Name == "Compute" {
				edges = append(edges, edge{s.Start, +1}, edge{s.End, -1})
			}
		}
		if len(edges) != 2*workers {
			t.Fatalf("%d workers: %d Compute states on the D ranks", workers, len(edges)/2)
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].at != edges[j].at {
				return edges[i].at < edges[j].at
			}
			return edges[i].step < edges[j].step
		})
		open, most := 0, 0
		for _, e := range edges {
			open += e.step
			most = max(most, open)
		}
		return most
	}
	if got := openTogether(1); got != 1 {
		t.Errorf("1 worker: %d D ranks computing at once, want 1", got)
	}
	if got := openTogether(4); got < 2 {
		t.Errorf("4 workers: at most %d D rank computing at any instant, want several", got)
	}
}

func TestDefaultsApplied(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Workers != 1 || cfg.NumImages != 1 || cfg.ImageW == 0 || cfg.Quality == 0 {
		t.Fatalf("defaults: %+v", cfg)
	}
}
