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
// machine-readable form (schema "pilot-analyze/2", or
// "pilot-analyze-diff/1" with -diff). -o writes to a file instead of
// stdout. -t0/-t1 restrict the analysis window like pilot-profile, and
// the log's block table accelerates windowed ones; the verdict reads
// the log and nothing else. -svg/-html additionally render the run's
// timeline with each finding drawn as an annotation where it happened. Exits 0 when the run is clean (or the diff is
// identical), 3 when findings or a divergence were reported, 1 on a
// read or decode error, 2 on usage errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/analyze"
	"repro/internal/clog2"
	"repro/vis"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command over args, writing to stdout and stderr; it returns
// the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pilot-analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	diff := fs.Bool("diff", false, "diff two runs by per-rank op sequence instead of analyzing one")
	asJSON := fs.Bool("json", false, "emit the verdict as JSON instead of text")
	out := fs.String("o", "", "write the report to this file (default: stdout)")
	t0 := fs.Float64("t0", math.Inf(-1), "analyze only records at or after this timestamp")
	t1 := fs.Float64("t1", math.Inf(1), "analyze only records at or before this timestamp")
	svgOut := fs.String("svg", "", "also render the timeline with findings annotated to this SVG file")
	htmlOut := fs.String("html", "", "also render the interactive timeline with findings annotated to this HTML file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "pilot-analyze:", err)
		return 1
	}
	usage := func() int {
		fmt.Fprintln(stderr, "usage: pilot-analyze [-json] [-o out] [-t0 T] [-t1 T] [-svg out.svg] [-html out.html] run.clog2")
		fmt.Fprintln(stderr, "       pilot-analyze -diff [-json] [-o out] clean.clog2 faulted.clog2")
		return 2
	}
	// emit writes rep as text or JSON to -o or stdout and returns the exit
	// code: 3 when found, that is when rep reports findings or divergences.
	emit := func(rep interface {
		JSON() ([]byte, error)
		Format() string
	}, found bool) int {
		var data []byte
		if !*asJSON {
			data = []byte(rep.Format())
		} else if j, err := rep.JSON(); err != nil {
			return fail(err)
		} else {
			data = j
		}
		if *out == "" {
			stdout.Write(data)
		} else if err := os.WriteFile(*out, data, 0o644); err != nil {
			return fail(err)
		}
		if found {
			return 3
		}
		return 0
	}

	if *diff {
		if fs.NArg() != 2 || *svgOut != "" || *htmlOut != "" {
			return usage()
		}
		rep, err := analyze.DiffFiles(fs.Arg(0), fs.Arg(1), analyze.DiffOptions{})
		if err != nil {
			return fail(err)
		}
		return emit(rep, !rep.Identical)
	}

	if fs.NArg() != 1 {
		return usage()
	}
	if err := clog2.CheckWindow(*t0, *t1); err != nil {
		fmt.Fprintln(stderr, "pilot-analyze:", err)
		return 2
	}
	path := fs.Arg(0)
	rep, err := analyze.AnalyzeFileWindowed(path, *t0, *t1)
	if err != nil {
		return fail(err)
	}
	code := emit(rep, !rep.Clean)
	if code == 1 || *svgOut == "" && *htmlOut == "" {
		return code
	}
	f, _, err := vis.ConvertFile(path, vis.ConvertOptions{})
	if err != nil {
		return fail(err)
	}
	v := vis.View{Title: path, Annotations: vis.Annotations(rep)}
	if *svgOut != "" {
		if err := vis.RenderSVGFile(*svgOut, f, v); err != nil {
			return fail(err)
		}
	}
	if *htmlOut != "" {
		if err := vis.RenderHTMLFile(*htmlOut, f, v); err != nil {
			return fail(err)
		}
	}
	return code
}
