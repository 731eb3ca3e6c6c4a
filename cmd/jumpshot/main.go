// Command jumpshot renders SLOG-2 logfiles the way the Jumpshot-4 viewer
// displays them: timelines with coloured state rectangles, event bubbles
// and message arrows (SVG), plus the legend window's statistics, duration
// statistics for a selected window, search-and-scan, and a terminal ASCII
// view.
//
// Usage:
//
//	jumpshot [-from T -to T] [-svg out.svg] [-ascii] [-legend] [-stats] [-search NAME] in.slog2
//
// A .clog2 input is converted on the fly (the integrated logfile
// converter the paper mentions).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/vis"
)

func main() {
	var (
		from     = flag.Float64("from", 0, "viewport start (seconds)")
		to       = flag.Float64("to", 0, "viewport end (0 = whole log)")
		svgOut   = flag.String("svg", "", "write an SVG rendering to this path")
		htmlOut  = flag.String("html", "", "write a self-contained interactive HTML viewer to this path")
		ascii    = flag.Bool("ascii", false, "print an ASCII timeline")
		legend   = flag.Bool("legend", false, "print the legend table (count/incl/excl)")
		stats    = flag.Bool("stats", false, "print per-rank duration statistics for the viewport")
		search   = flag.String("search", "", "search drawables by category name substring")
		sortKey  = flag.String("sort", "name", "legend sort key: name, count, incl, excl")
		width    = flag.Int("width", 1200, "SVG width / ASCII columns")
		title    = flag.String("title", "", "SVG title")
		statsSVG = flag.String("stats-svg", "", "write the duration-statistics chart to this path")
		order    = flag.String("order", "", "timeline cut/paste: comma-separated rank order, e.g. 0,3,1")
		expand   = flag.String("expand", "", "vertical expansion, e.g. 1=3,4=2 (rank=multiplier)")
		chrome   = flag.String("chrome", "", "export Chrome trace-event JSON (chrome://tracing, Perfetto) to this path")
		at       = flag.String("at", "", "describe drawables under RANK:TIME, e.g. -at 3:0.0012")
		waits    = flag.Bool("waits", false, "print the who-waits-on-whom matrix for the viewport")
		critpath = flag.Bool("critpath", false, "print the critical path (the chain determining wall-clock time)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: jumpshot [options] in.slog2|in.clog2")
		os.Exit(2)
	}
	in := flag.Arg(0)

	// Flag values are parsed before the file is opened: a bad one is exit 2.
	num := func(name, value, s string) int {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintf(os.Stderr, "jumpshot: bad -%s value %q: %q is not an integer\n", name, value, s)
			os.Exit(2)
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
	var atRank int
	var atTime float64
	if *at != "" {
		if _, err := fmt.Sscanf(*at, "%d:%g", &atRank, &atTime); err != nil {
			fmt.Fprintf(os.Stderr, "jumpshot: bad -at value %q (want RANK:TIME)\n", *at)
			os.Exit(2)
		}
	}

	var f *vis.File
	var err error
	if strings.HasSuffix(in, ".clog2") {
		var rep *vis.Report
		f, rep, err = vis.ConvertFile(in, vis.ConvertOptions{})
		if err == nil {
			for _, w := range rep.Warnings {
				fmt.Fprintf(os.Stderr, "convert warning: %s\n", w)
			}
		}
	} else {
		f, err = vis.ReadSLOG2(in)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	t0, t1 := *from, *to
	if t1 <= t0 {
		t0, t1 = f.Start, f.End
	}
	view.From, view.To = t0, t1

	did := false
	if *htmlOut != "" {
		if err := vis.RenderHTMLFile(*htmlOut, f, view); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (interactive: wheel zoom, drag scroll)\n", *htmlOut)
		did = true
	}
	if *svgOut != "" {
		if err := vis.RenderSVGFile(*svgOut, f, view); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (viewport [%.6f, %.6f]s, %d ranks)\n", *svgOut, t0, t1, f.NumRanks)
		did = true
	}
	if *ascii {
		fmt.Print(vis.RenderASCII(f, view))
		did = true
	}
	if *legend {
		entries := vis.Legend(f, t0, t1)
		vis.SortLegend(entries, *sortKey)
		fmt.Print(vis.FormatLegend(entries))
		did = true
	}
	if *stats {
		fmt.Print(vis.FormatStats(f, vis.Stats(f, t0, t1)))
		did = true
	}
	if *statsSVG != "" {
		svg := vis.RenderStatsSVG(f, t0, t1, *title)
		if err := os.WriteFile(*statsSVG, []byte(svg), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *statsSVG)
		did = true
	}
	if *search != "" {
		hits := vis.Search(f, vis.SearchOptions{Name: *search, Rank: -1, From: t0, To: t1})
		fmt.Print(vis.FormatHits(hits))
		fmt.Printf("%d hit(s)\n", len(hits))
		did = true
	}
	if *waits {
		fmt.Print(vis.FormatWaitMatrix(vis.WaitMatrix(f, t0, t1)))
		did = true
	}
	if *critpath {
		fmt.Print(vis.FormatCriticalPath(vis.CriticalPath(f)))
		did = true
	}
	if *chrome != "" {
		data, err := vis.RenderChromeTrace(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*chrome, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (open in chrome://tracing or Perfetto)\n", *chrome)
		did = true
	}
	if *at != "" {
		for _, line := range vis.At(f, atRank, atTime) {
			fmt.Println(line)
		}
		did = true
	}
	if !did {
		// Default: a quick summary plus the ASCII view.
		fmt.Printf("%s: %d ranks, [%.6f, %.6f]s, %d categories, %d warnings\n",
			in, f.NumRanks, f.Start, f.End, len(f.Categories), len(f.Warnings))
		fmt.Print(vis.RenderASCII(f, view))
	}
}
