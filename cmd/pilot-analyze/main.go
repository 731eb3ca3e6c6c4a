// Command pilot-analyze turns a CLOG-2 log into verdicts: a detector
// catalogue for communication pathologies (hotspot channels, send/recv
// imbalance, barrier stragglers, mailbox backlog, blocked-time
// dominators, injected-fault correlation), or a diff of two runs of the
// same program localizing the first divergent rank/op.
//
// Usage:
//
//	pilot-analyze [-json] [-o out] [-t0 T] [-t1 T] [-svg out.svg] [-html out.html] run.clog2
//	pilot-analyze -diff [-json] [-o out] clean.clog2 faulted.clog2
//
// By default the verdict prints as text; -json emits the
// machine-readable form (schema "pilot-analyze/1", or
// "pilot-analyze-diff/1" with -diff). -o writes to a file instead of
// stdout. -t0/-t1 restrict the analysis window like pilot-profile; a
// matching ".profile.json" sidecar is reused for whole-run analyses and
// the log's block table accelerates windowed ones. -svg/-html additionally
// render the run's timeline with each finding drawn as an annotation
// where it happened. Exits 0 when the run is clean (or the diff is
// identical), 3 when findings or a divergence were reported, 1 on a
// read or decode error, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/analyze"
	"repro/vis"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pilot-analyze:", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: pilot-analyze [-json] [-o out] [-t0 T] [-t1 T] [-svg out.svg] [-html out.html] run.clog2")
	fmt.Fprintln(os.Stderr, "       pilot-analyze -diff [-json] [-o out] clean.clog2 faulted.clog2")
	os.Exit(2)
}

func emit(data []byte, out string) {
	if out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fail(err)
	}
}

func main() {
	diff := flag.Bool("diff", false, "diff two runs by per-rank op sequence instead of analyzing one")
	asJSON := flag.Bool("json", false, "emit the verdict as JSON instead of text")
	out := flag.String("o", "", "write the report to this file (default: stdout)")
	t0 := flag.Float64("t0", math.Inf(-1), "analyze only records at or after this timestamp")
	t1 := flag.Float64("t1", math.Inf(1), "analyze only records at or before this timestamp")
	svgOut := flag.String("svg", "", "also render the timeline with findings annotated to this SVG file")
	htmlOut := flag.String("html", "", "also render the interactive timeline with findings annotated to this HTML file")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 || *svgOut != "" || *htmlOut != "" {
			usage()
		}
		rep, err := analyze.DiffFiles(flag.Arg(0), flag.Arg(1), analyze.DiffOptions{})
		if err != nil {
			fail(err)
		}
		var data []byte
		if *asJSON {
			data, err = rep.JSON()
			if err != nil {
				fail(err)
			}
		} else {
			data = []byte(rep.Format())
		}
		emit(data, *out)
		if !rep.Identical {
			os.Exit(3)
		}
		return
	}

	if flag.NArg() != 1 {
		usage()
	}
	if *t1 < *t0 {
		fmt.Fprintf(os.Stderr, "pilot-analyze: empty time window [%g,%g]\n", *t0, *t1)
		os.Exit(2)
	}
	path := flag.Arg(0)
	rep, err := analyze.AnalyzeFile(path, analyze.Options{T0: *t0, T1: *t1})
	if err != nil {
		fail(err)
	}

	var data []byte
	if *asJSON {
		data, err = rep.JSON()
		if err != nil {
			fail(err)
		}
	} else {
		data = []byte(rep.Format())
	}
	emit(data, *out)

	if *svgOut != "" || *htmlOut != "" {
		f, _, err := vis.ConvertFile(path, vis.ConvertOptions{})
		if err != nil {
			fail(err)
		}
		v := vis.View{Title: path, Annotations: vis.Annotations(rep)}
		if *svgOut != "" {
			if err := vis.RenderSVGFile(*svgOut, f, v); err != nil {
				fail(err)
			}
		}
		if *htmlOut != "" {
			if err := vis.RenderHTMLFile(*htmlOut, f, v); err != nil {
				fail(err)
			}
		}
	}

	if !rep.Clean {
		os.Exit(3)
	}
}
