// Command jumpshot renders SLOG-2 logfiles the way the Jumpshot-4 viewer
// displays them: timelines with coloured state rectangles, event bubbles
// and message arrows (SVG), plus the legend window's statistics, duration
// statistics for a selected window, search-and-scan, and a terminal ASCII
// view.
//
// Usage:
//
//	jumpshot [-from T] [-to T] [-svg out.svg] [-ascii] [-legend [-sort KEY]] [-stats] [-search NAME] in.slog2
//
// -from and -to bound the viewport; an unset bound is the log's own start
// or end. A .clog2 input is converted on the fly (the integrated logfile
// converter the paper mentions). Exits 0 on success, 1 on a read or write
// error, 2 on usage errors: a bad flag value, an empty window (see
// clog2.CheckWindow) or an unknown -sort key.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/clog2"
	"repro/vis"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command over args, writing to stdout and stderr; it returns
// the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jumpshot", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		from     = fs.Float64("from", math.Inf(-1), "viewport start in seconds; -Inf is the log's start")
		to       = fs.Float64("to", math.Inf(1), "viewport end in seconds; +Inf is the log's end")
		svgOut   = fs.String("svg", "", "write an SVG rendering to this path")
		htmlOut  = fs.String("html", "", "write a self-contained interactive HTML viewer to this path")
		ascii    = fs.Bool("ascii", false, "print an ASCII timeline")
		legend   = fs.Bool("legend", false, "print the legend table (count/incl/excl)")
		stats    = fs.Bool("stats", false, "print per-rank duration statistics for the viewport")
		search   = fs.String("search", "", "search drawables by category name substring")
		sortKey  = fs.String("sort", "name", "legend sort key: name, count, incl, excl")
		width    = fs.Int("width", 1200, "SVG width / ASCII columns")
		title    = fs.String("title", "", "SVG title")
		statsSVG = fs.String("stats-svg", "", "write the duration-statistics chart to this path")
		order    = fs.String("order", "", "timeline cut/paste: comma-separated rank order, e.g. 0,3,1")
		expand   = fs.String("expand", "", "vertical expansion, e.g. 1=3,4=2 (rank=multiplier)")
		chrome   = fs.String("chrome", "", "export Chrome trace-event JSON (chrome://tracing, Perfetto) to this path")
		at       = fs.String("at", "", "describe drawables under RANK:TIME, e.g. -at 3:0.0012")
		waits    = fs.Bool("waits", false, "print the who-waits-on-whom matrix for the viewport")
		critpath = fs.Bool("critpath", false, "print the critical path (the chain determining wall-clock time)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: jumpshot [options] in.slog2|in.clog2")
		return 2
	}
	in := fs.Arg(0)

	// Flag values are checked before the file is opened: a bad one is exit 2.
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "jumpshot: "+format+"\n", args...)
		return 2
	}
	if err := clog2.CheckWindow(*from, *to); err != nil {
		return usage("%v", err)
	}
	switch *sortKey {
	case "name", "count", "incl", "excl":
	default:
		return usage("unknown -sort key %q (want name, count, incl or excl)", *sortKey)
	}
	var bad error // the first bad integer in -order or -expand
	num := func(name, value, s string) int {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil && bad == nil {
			bad = fmt.Errorf("bad -%s value %q: %q is not an integer", name, value, s)
		}
		return n
	}
	view := vis.View{Width: *width, Title: *title}
	if *order != "" {
		for _, part := range strings.Split(*order, ",") {
			view.RankOrder = append(view.RankOrder, num("order", *order, part))
		}
	}
	if *expand != "" {
		view.Expand = map[int]int{}
		for _, part := range strings.Split(*expand, ",") {
			r, m, _ := strings.Cut(part, "=")
			view.Expand[num("expand", *expand, r)] = num("expand", *expand, m)
		}
	}
	if bad != nil {
		return usage("%v", bad)
	}
	var atRank int
	var atTime float64
	if *at != "" {
		if _, err := fmt.Sscanf(*at, "%d:%g", &atRank, &atTime); err != nil {
			return usage("bad -at value %q (want RANK:TIME)", *at)
		}
	}

	var f *vis.File
	var err error
	if strings.HasSuffix(in, ".clog2") {
		var rep *vis.Report
		f, rep, err = vis.ConvertFile(in, vis.ConvertOptions{})
		if err == nil {
			for _, w := range rep.Warnings {
				fmt.Fprintf(stderr, "convert warning: %s\n", w)
			}
		}
	} else {
		f, err = vis.ReadSLOG2(in)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	t0, t1 := *from, *to
	if math.IsInf(t0, -1) {
		t0 = f.Start
	}
	if math.IsInf(t1, 1) {
		t1 = f.End
	}
	if err := clog2.CheckWindow(t0, t1); err != nil {
		return usage("%v: the log spans [%g,%g]", err, f.Start, f.End)
	}
	view.From, view.To = t0, t1
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	did := false
	if *htmlOut != "" {
		if err := vis.RenderHTMLFile(*htmlOut, f, view); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s (interactive: wheel zoom, drag scroll)\n", *htmlOut)
		did = true
	}
	if *svgOut != "" {
		if err := vis.RenderSVGFile(*svgOut, f, view); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s (viewport [%.6f, %.6f]s, %d ranks)\n", *svgOut, t0, t1, f.NumRanks)
		did = true
	}
	if *ascii {
		fmt.Fprint(stdout, vis.RenderASCII(f, view))
		did = true
	}
	if *legend {
		entries := vis.Legend(f, t0, t1)
		vis.SortLegend(entries, *sortKey)
		fmt.Fprint(stdout, vis.FormatLegend(entries))
		did = true
	}
	if *stats {
		fmt.Fprint(stdout, vis.FormatStats(f, vis.Stats(f, t0, t1)))
		did = true
	}
	if *statsSVG != "" {
		svg := vis.RenderStatsSVG(f, t0, t1, *title)
		if err := os.WriteFile(*statsSVG, []byte(svg), 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *statsSVG)
		did = true
	}
	if *search != "" {
		hits := vis.Search(f, vis.SearchOptions{Name: *search, Rank: -1, From: t0, To: t1})
		fmt.Fprint(stdout, vis.FormatHits(hits))
		fmt.Fprintf(stdout, "%d hit(s)\n", len(hits))
		did = true
	}
	if *waits {
		fmt.Fprint(stdout, vis.FormatWaitMatrix(vis.WaitMatrix(f, t0, t1)))
		did = true
	}
	if *critpath {
		fmt.Fprint(stdout, vis.FormatCriticalPath(vis.CriticalPath(f)))
		did = true
	}
	if *chrome != "" {
		data, err := vis.RenderChromeTrace(f)
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*chrome, data, 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s (open in chrome://tracing or Perfetto)\n", *chrome)
		did = true
	}
	if *at != "" {
		for _, line := range vis.At(f, atRank, atTime) {
			fmt.Fprintln(stdout, line)
		}
		did = true
	}
	if !did {
		// Default: a quick summary plus the ASCII view.
		fmt.Fprintf(stdout, "%s: %d ranks, [%.6f, %.6f]s, %d categories, %d warnings\n",
			in, f.NumRanks, f.Start, f.End, len(f.Categories), len(f.Warnings))
		fmt.Fprint(stdout, vis.RenderASCII(f, view))
	}
	return 0
}
