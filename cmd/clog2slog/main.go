// Command clog2slog converts a CLOG-2 logfile to SLOG-2 — the paper's
// "preferred" two-step pipeline, whose conversion step surfaces problems
// with the log contents (unmatched messages, nesting errors, and the
// "Equal Drawables" warning caused by limited clock resolution) and
// exposes the frame-size parameter that governs how much data the viewer
// initially displays.
//
// Usage:
//
//	clog2slog [-framesize N] [-workers N] [-o out.slog2] in.clog2
//
// -workers sizes the conversion worker pool (0 = one per CPU); the output
// is byte-identical at any worker count.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/vis"
)

func main() {
	frameSize := flag.Int("framesize", 0, "maximum drawables per frame (0 = default 256)")
	workers := flag.Int("workers", 0, "conversion worker-pool size (0 = one per CPU)")
	out := flag.String("o", "", "output path (default: input with .slog2 suffix)")
	quiet := flag.Bool("q", false, "suppress per-warning output")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: clog2slog [-framesize N] [-workers N] [-o out.slog2] in.clog2")
		os.Exit(2)
	}
	in := flag.Arg(0)
	dst := *out
	if dst == "" {
		dst = in + ".slog2"
	}

	f, rep, err := vis.ConvertFile(in, vis.ConvertOptions{FrameCapacity: *frameSize, Workers: *workers})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := vis.WriteSLOG2(dst, f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s: %d states, %d arrows, %d events over [%.6f, %.6f]s, %d ranks -> %s\n",
		in, rep.States, rep.Arrows, rep.Events, f.Start, f.End, f.NumRanks, dst)
	if !*quiet {
		for _, w := range rep.Warnings {
			fmt.Fprintf(os.Stderr, "warning: %s\n", w)
		}
	}
	if rep.EqualDrawables > 0 {
		fmt.Fprintf(os.Stderr, "warning: %d Equal Drawables (consider enabling the arrow-spread delay)\n", rep.EqualDrawables)
	}
	if rep.UnmatchedSends+rep.UnmatchedRecvs+rep.NestingErrors > 0 {
		os.Exit(3) // non-well-behaved log, as the paper warns can happen
	}
}
