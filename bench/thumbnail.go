package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/analyze"
	"repro/internal/core"
	"repro/internal/jumpshot"
	"repro/internal/serve"
	"repro/internal/slog2"
	"repro/internal/thumbnail"
	"repro/vis"
)

// thumbnailRun is the paper's demonstration program followed by the whole
// post-run chain: run with -pisvc=j, register the log, diagnose it, read
// the SLOG-2 back and render the first full-span tile. The codec dominates
// and the log is small, so every tool runs in its fixed-cost regime. The
// journey is StartAll to first tile bytes.
type thumbnailRun struct {
	base
	seed           int64
	checkedWorkers bool
}

func (t *thumbnailRun) clog() string { return filepath.Join(t.dir, "thumbnail.clog2") }
func (t *thumbnailRun) repo() string { return filepath.Join(t.dir, "repo") }

func (t *thumbnailRun) setup(dir string, seed int64) error {
	t.dir, t.seed = dir, seed
	if err := os.Mkdir(t.repo(), 0o755); err != nil {
		return err
	}
	// thumbnail.Run makes its images from the seed itself, so set-up is a
	// short warm-up of the program and the tools.
	if _, err := t.run(t.sc.warmImages, "j"); err != nil {
		return err
	}
	_, _, err := postRun(nil, 0, t.clog(), t.repo(), "thumbnail")
	return err
}

func (t *thumbnailRun) run(images int, services string) (*thumbnail.Result, error) {
	res, err := thumbnail.Run(thumbnail.Config{
		Workers:   2,
		NumImages: images,
		Seed:      t.seed,
		Core: core.Config{
			Services:     services,
			CheckLevel:   3,
			JumpshotPath: t.clog(),
		},
	})
	if err != nil {
		return nil, err
	}
	t.chk.check(res.Thumbnails == images, "thumbnail: %d thumbnails from %d images", res.Thumbnails, images)
	return res, nil
}

// postRun takes a finished log to its first picture and its verdict:
// registration, SLOG-2 read-back and the full-span tile (together the time
// to timeline), and the analyzer run on the registered copy, whose
// sidecars are fresh. It returns the two times in seconds.
func postRun(tr *tracer, parent int, clog, repo, id string) (timeline, diagnose float64, err error) {
	_, _, regSecs, err := register(tr, parent, clog, repo, id)
	if err != nil {
		return 0, 0, fmt.Errorf("register %s: %w", clog, err)
	}

	sp := tr.begin(parent, "analyze.verdict")
	diagnose, err = timed(func() error {
		_, err := analyze.AnalyzeFile(filepath.Join(repo, id+".clog2"), analyze.Options{})
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	tr.end(sp, fileSize(clog), 0)

	var f *slog2.File
	slogPath := filepath.Join(repo, id+".slog2")
	sp = tr.begin(parent, "slog2.read")
	readSecs, err := timed(func() (err error) {
		f, err = slog2.ReadFile(slogPath)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	tr.end(sp, fileSize(slogPath), 0)

	sp = tr.begin(parent, "serve.render_tile")
	var svg []byte
	tileSecs, _ := timed(func() error {
		svg = serve.RenderTileSVG(&serve.Trace{ID: id, File: f}, fullWindow(f), 0)
		return nil
	})
	tr.end(sp, int64(len(svg)), 0)
	if !bytes.Contains(svg[:min(len(svg), 256)], []byte("<svg")) {
		return 0, 0, fmt.Errorf("first tile of %s is not an SVG document", id)
	}
	return regSecs + readSecs + tileSecs, diagnose, nil
}

func fullWindow(f *slog2.File) jumpshot.Window {
	return jumpshot.Window{T0: f.Start, T1: f.End, RankLo: 0, RankHi: -1}
}

// checkWorkersIdentical converts the log with one worker and with two and
// checks that the SLOG-2 bytes agree.
func checkWorkersIdentical(chk *checker, clog string) error {
	var out [2]bytes.Buffer
	for i := range out {
		f, _, err := vis.ConvertFile(clog, vis.ConvertOptions{Workers: i + 1})
		if err != nil {
			return err
		}
		if err := slog2.Write(&out[i], f); err != nil {
			return err
		}
	}
	chk.check(bytes.Equal(out[0].Bytes(), out[1].Bytes()), "%s: SLOG-2 differs between 1 and 2 conversion workers", filepath.Base(clog))
	return nil
}

func (t *thumbnailRun) rep(tr *tracer, m *meter) (float64, error) {
	runtime.GC()
	m.start()
	sp := tr.begin(0, "thumbnail.run")
	res, err := t.run(t.sc.images, "j")
	if err != nil {
		return 0, err
	}
	tr.add(sp, "mpe.finish", tr.now()-res.WrapUp.Seconds(), tr.now())
	tr.end(sp, fileSize(t.clog()), 0)
	timeline, diagnose, err := postRun(tr, 0, t.clog(), t.repo(), "thumbnail")
	m.stop()
	if err != nil {
		return 0, err
	}
	if !t.checkedWorkers {
		t.checkedWorkers = true
		if err := checkWorkersIdentical(t.chk, t.clog()); err != nil {
			return 0, err
		}
	}
	journey := res.Elapsed.Seconds() + res.WrapUp.Seconds() + timeline + diagnose
	t.smp.add("e2e_first_tile_s", journey)
	t.smp.add("time_to_timeline_s", timeline)
	t.smp.add("diagnose_s", diagnose)
	return journey, nil
}

func (t *thumbnailRun) artifacts() (string, string) { return t.clog(), t.clog() }
