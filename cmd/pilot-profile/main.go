// Command pilot-profile computes a post-run statistics report from a
// CLOG-2 log: per-channel and per-rank message totals, per-state
// duration quantiles (p50/p95/max) and a busy-vs-blocked breakdown —
// the numbers a timeline shows as pictures, as text or JSON.
//
// Usage:
//
//	pilot-profile [-json] [-o out] [-t0 T] [-t1 T] run.clog2
//
// By default the report prints as aligned text tables; -json emits the
// machine-readable form (schema "pilot-profile/1"). -o writes to a file
// instead of stdout. -t0/-t1 restrict the profile to records whose
// timestamps fall in the inclusive window [t0, t1] — the windowed
// profile of a long run without streaming the world: when the log ends
// in a valid block table, only the blocks the window can touch are
// decoded (falling back to the full scan when the table is absent or
// invalid; the answers are identical either way).
// Definition records always pass the window, so state classification
// does not depend on where it lands. Exits 0 on success, 1 on a read or
// decode error, 2 on usage errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/idx"
	"repro/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command over args, writing to stdout and stderr; it returns
// the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pilot-profile", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit the profile as JSON instead of text tables")
	out := fs.String("o", "", "write the report to this file (default: stdout)")
	t0 := fs.Float64("t0", math.Inf(-1), "profile only records at or after this timestamp")
	t1 := fs.Float64("t1", math.Inf(1), "profile only records at or before this timestamp")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: pilot-profile [-json] [-o out] [-t0 T] [-t1 T] run.clog2")
		return 2
	}
	if err := idx.CheckWindow(*t0, *t1); err != nil {
		fmt.Fprintln(stderr, "pilot-profile:", err)
		return 2
	}

	p, _, err := stats.ComputeProfileFileWindowed(fs.Arg(0), *t0, *t1)
	if err != nil {
		fmt.Fprintln(stderr, "pilot-profile:", err)
		return 1
	}

	var data []byte
	if *asJSON {
		data, err = p.JSON()
		if err != nil {
			fmt.Fprintln(stderr, "pilot-profile:", err)
			return 1
		}
	} else {
		data = []byte(p.Format())
	}

	if *out == "" {
		stdout.Write(data)
		return 0
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(stderr, "pilot-profile:", err)
		return 1
	}
	return 0
}
