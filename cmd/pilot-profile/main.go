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
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/stats"
)

func main() {
	asJSON := flag.Bool("json", false, "emit the profile as JSON instead of text tables")
	out := flag.String("o", "", "write the report to this file (default: stdout)")
	t0 := flag.Float64("t0", math.Inf(-1), "profile only records at or after this timestamp")
	t1 := flag.Float64("t1", math.Inf(1), "profile only records at or before this timestamp")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pilot-profile [-json] [-o out] [-t0 T] [-t1 T] run.clog2")
		os.Exit(2)
	}
	if *t1 < *t0 {
		fmt.Fprintf(os.Stderr, "pilot-profile: empty time window [%g,%g]\n", *t0, *t1)
		os.Exit(2)
	}

	p, _, err := stats.ComputeProfileFileWindowed(flag.Arg(0), *t0, *t1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pilot-profile:", err)
		os.Exit(1)
	}

	var data []byte
	if *asJSON {
		data, err = p.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "pilot-profile:", err)
			os.Exit(1)
		}
	} else {
		data = []byte(p.Format())
	}

	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "pilot-profile:", err)
		os.Exit(1)
	}
}
