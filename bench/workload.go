package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/idx"
	"repro/internal/slog2"
	"repro/vis"
)

// scale sizes every workload. The benchmark runs at fullScale; the tests
// run the same code at shortScale in a few seconds.
type scale struct {
	roundTrips int // pingpong: round trips per run (4 Pilot calls each)
	images     int // thumbnail: images per run
	warmImages int // thumbnail: images of the set-up warm-up run
	bigBytes   int64
	windows    int // bigtrace: windowed profiles per pass
	traces     int // serve_session: traces in the repository
	traceBytes int64
	coldTiles  int // serve_session: distinct tiles per session
	mixedReqs  int // serve_session: requests of the mixed phase
	probe      int // layer battery: iterations of the micro probes
	// minReps is how many repetitions a run measures at least. Five
	// serve_session repetitions are 1020 cold tiles, which p99 needs.
	minReps int
}

var fullScale = scale{
	roundTrips: 25000,
	images:     1058,
	warmImages: 256,
	bigBytes:   12 << 20,
	windows:    200,
	traces:     4,
	traceBytes: 4 << 20,
	coldTiles:  204,
	mixedReqs:  300,
	probe:      200000,
	minReps:    5,
}

var shortScale = scale{
	roundTrips: 500,
	images:     24,
	warmImages: 8,
	bigBytes:   1 << 20,
	windows:    20,
	traces:     2,
	traceBytes: 256 << 10,
	coldTiles:  18,
	mixedReqs:  30,
	probe:      2000,
	minReps:    2,
}

// workload is one set of inputs and the user journey measured on them.
type workload interface {
	// setup makes the inputs for seed under the empty directory dir and
	// brings the program to the state a user's second run finds it in.
	setup(dir string, seed int64) error
	// rep runs one repetition of the journey, bracketing the measured part
	// with m.start and m.stop, and returns the journey's wall seconds.
	rep(tr *tracer, m *meter) (float64, error)
	// named returns the workload's own user-visible metrics, medians over
	// the repetitions so far.
	named() map[string]metric
	// sampled returns every timing the repetitions recorded.
	sampled() *samples
	// artifacts names the CLOG-2 file the layer battery runs on and a
	// second log to diff it against.
	artifacts() (clog, other string)
}

// base is what every workload carries.
type base struct {
	name string
	sc   scale
	chk  *checker
	smp  samples
	dir  string
}

func (b *base) sampled() *samples { return &b.smp }

// workloadNames lists the workloads in the order the suite runs them; the
// names and reasons are repeated in BENCHMARK.json.
var workloadNames = []string{"pingpong", "thumbnail", "bigtrace", "serve_session"}

func newWorkload(name string, sc scale, chk *checker) (workload, error) {
	switch name {
	case "pingpong":
		return &pingpong{base: base{name: name, sc: sc, chk: chk}}, nil
	case "thumbnail":
		return &thumbnailRun{base: base{name: name, sc: sc, chk: chk}}, nil
	case "bigtrace":
		return &bigtrace{base: base{name: name, sc: sc, chk: chk}}, nil
	case "serve_session":
		return &serveSession{base: base{name: name, sc: sc, chk: chk}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// named returns the workload's named metrics that are medians of the
// samples collected under their own name.
func (b *base) named() map[string]metric {
	out := map[string]metric{}
	for _, d := range named[b.name] {
		if xs := b.smp.get(d.Name); len(xs) > 0 {
			out[d.Name] = metric{median(xs), d.Unit}
		}
	}
	return out
}

// register puts the CLOG-2 at clog into the trace repository under id, as
// vis.PipelineToRepo does. With a tracer the stages are called one by one,
// each under its own span, so that their times can be added up; without
// one it is the single library call. It returns the registration's wall
// seconds.
func register(tr *tracer, parent int, clog, repo, id string) (*slog2.File, *vis.Report, float64, error) {
	if tr == nil {
		var f *slog2.File
		var rep *vis.Report
		secs, err := timed(func() (err error) {
			f, rep, _, err = vis.PipelineToRepo(clog, repo, id, vis.ConvertOptions{})
			return err
		})
		return f, rep, secs, err
	}
	size := fileSize(clog)
	whole := tr.begin(parent, "vis.pipeline_stages")
	slogPath := filepath.Join(repo, id+".slog2")
	rawPath := filepath.Join(repo, id+".clog2")

	sp := tr.begin(whole, "slog2.convert")
	f, rep, err := vis.ConvertFile(clog, vis.ConvertOptions{})
	if err != nil {
		return nil, nil, 0, err
	}
	tr.end(sp, size, int64(rep.States+rep.Arrows+rep.Events))

	sp = tr.begin(whole, "slog2.write")
	if err := vis.WriteSLOG2(slogPath, f); err != nil {
		return nil, nil, 0, err
	}
	tr.end(sp, fileSize(slogPath), 0)

	sp = tr.begin(whole, "stats.profile")
	prof, err := vis.ComputeProfileFile(clog)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := prof.WriteJSON(vis.ProfilePath(slogPath)); err != nil {
		return nil, nil, 0, err
	}
	tr.end(sp, size, prof.Totals.Records)

	sp = tr.begin(whole, "vis.copy_raw")
	if err := copyFile(clog, rawPath); err != nil {
		return nil, nil, 0, err
	}
	tr.end(sp, size, 0)

	sp = tr.begin(whole, "idx.build")
	ix, err := idx.BuildFile(rawPath)
	if err != nil {
		return nil, nil, 0, err
	}
	tr.end(sp, size, ix.TotalRecords)

	sp = tr.begin(whole, "idx.write")
	if err := idx.WriteFileFor(rawPath, ix); err != nil {
		return nil, nil, 0, err
	}
	tr.end(sp, fileSize(idx.SidecarPath(rawPath)), 0)

	return f, rep, tr.end(whole, size, 0), nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
