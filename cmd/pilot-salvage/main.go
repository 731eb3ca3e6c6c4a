// Command pilot-salvage merges the spill fragments left by an aborted
// RobustLog run into a complete CLOG-2 file — the manual form of the
// automatic salvage PI_StopMain performs, for the cases where the whole
// process died before StopMain (panic, kill, power loss).
//
// Usage:
//
//	pilot-salvage [-o out.clog2] [-keep] [-q] PREFIX
//
// PREFIX is the JumpshotPath of the dead run; the tool discovers
// PREFIX.defs.spill and every PREFIX.rank<N>.spill by globbing, so no
// rank is out of range. It prints a per-rank damage report and exits 0
// on a full recovery, 4 when records were recovered but something was
// lost (corrupted segments, quarantined bytes, synthesized definitions),
// and 1 when nothing could be salvaged at all.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/mpe"
)

func main() {
	out := flag.String("o", "", "output CLOG-2 path (default: PREFIX itself)")
	keep := flag.Bool("keep", false, "keep the spill fragments after salvaging")
	quiet := flag.Bool("q", false, "suppress the per-rank report (errors still print)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pilot-salvage [-o out.clog2] [-keep] [-q] PREFIX")
		os.Exit(2)
	}
	prefix := flag.Arg(0)
	dst := *out
	if dst == "" {
		dst = prefix
	}
	f, err := os.Create(dst)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rep, err := mpe.SalvageWithReport(prefix, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(dst)
		fmt.Fprintln(os.Stderr, "pilot-salvage:", err)
		os.Exit(1)
	}
	if rep.RanksRecovered == 0 {
		os.Remove(dst)
		fmt.Fprintln(os.Stderr, "pilot-salvage: no records recovered from any rank fragment")
		os.Exit(1)
	}
	if !*quiet {
		fmt.Println(rep)
	}
	fmt.Printf("salvaged %s -> %s\n", rep.Summary(), dst)
	if !*keep {
		mpe.RemoveSpills(prefix)
	}
	if !rep.Clean() {
		os.Exit(4)
	}
}
