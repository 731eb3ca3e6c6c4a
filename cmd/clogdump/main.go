// Command clogdump prints the raw records of a CLOG-2 file — the
// diagnostic use the paper gives for keeping the two-step conversion
// pipeline: "the conversion step can be useful for diagnosing problems
// with the log contents, say, due to improper use of MPE's API".
//
// Usage:
//
//	clogdump [-rank N] [-type NAME] [-defs] [-t0 T] [-t1 T] [-channel C] [-noindex] in.clog2
//
// -t0/-t1 bound the time window (inclusive; definition records are
// metadata and always pass the window), -rank keeps one rank's records,
// -channel keeps message events on one channel (tag). When a valid
// ".idx" sidecar sits next to the file, filtered dumps seek straight to
// the blocks the query can touch instead of decoding the whole log; the
// output is identical either way, and -noindex forces the full scan.
// Works on spill fragments from aborted runs too (lenient parsing).
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/clog2"
	"repro/internal/idx"
)

func main() {
	rank := flag.Int("rank", -1, "only records from this rank")
	typ := flag.String("type", "", "only records of this type (StateDef, CargoEvt, MsgEvt, ...)")
	defsOnly := flag.Bool("defs", false, "only definition records")
	t0 := flag.Float64("t0", math.Inf(-1), "only records at or after this timestamp (defs always pass)")
	t1 := flag.Float64("t1", math.Inf(1), "only records at or before this timestamp (defs always pass)")
	channel := flag.Int("channel", -1, "only message events on this channel (tag)")
	noIndex := flag.Bool("noindex", false, "ignore any .idx sidecar and scan the whole file")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: clogdump [-rank N] [-type NAME] [-defs] [-t0 T] [-t1 T] [-channel C] [-noindex] in.clog2")
		os.Exit(2)
	}
	if *t1 < *t0 {
		fmt.Fprintf(os.Stderr, "clogdump: empty time window [%g,%g]\n", *t0, *t1)
		os.Exit(2)
	}
	path := flag.Arg(0)

	q := idx.Query{T0: *t0, T1: *t1, Rank: int32(*rank), Chan: int32(*channel), IncludeDefs: true}
	match := func(rec *clog2.Record) bool {
		if !q.Matches(rec) {
			return false
		}
		if *typ != "" && !strings.EqualFold(rec.Type.String(), *typ) {
			return false
		}
		if *defsOnly {
			switch rec.Type {
			case clog2.RecStateDef, clog2.RecEventDef, clog2.RecConstDef:
			default:
				return false
			}
		}
		return true
	}

	if !*noIndex {
		if ix, err := idx.Load(path); err == nil {
			if dumpIndexed(path, ix, q, match) {
				return
			}
			// The index validated but disagreed with the file mid-scan;
			// fall through to the authoritative full scan.
		}
	}
	dumpScan(path, match)
}

// dumpIndexed seeks through only the blocks the query can touch. Output
// is buffered until the scan completes so a mid-scan index/file mismatch
// can fall back to the full scan without half a dump already printed;
// filtered dumps are small by construction (that is the point of the
// filters).
func dumpIndexed(path string, ix *idx.Index, q idx.Query, match func(*clog2.Record) bool) bool {
	var out bytes.Buffer
	fmt.Fprintf(&out, "ranks: %d, blocks: %d\n", ix.NumRanks, len(ix.Blocks))
	n := 0
	err := idx.ScanFile(path, ix, ix.Select(q), func(b clog2.Block) error {
		for i := range b.Records {
			if match(&b.Records[i]) {
				fmt.Fprintln(&out, formatRecord(b.Records[i]))
				n++
			}
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "warning: index disagrees with the file (%v); re-answering with a full scan\n", err)
		return false
	}
	fmt.Fprintf(&out, "%d record(s)\n", n)
	io.Copy(os.Stdout, &out)
	return true
}

// dumpScan is the authoritative full scan: every block decoded in file
// order, lenient about torn tails from aborted runs.
func dumpScan(path string, match func(*clog2.Record) bool) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	log, complete, err := clog2.ReadLenient(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if !complete {
		fmt.Fprintln(os.Stderr, "warning: file is torn (no end-log marker); showing complete blocks only")
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "ranks: %d, blocks: %d\n", log.NumRanks, len(log.Blocks))
	n := 0
	for _, b := range log.Blocks {
		for i := range b.Records {
			if match(&b.Records[i]) {
				fmt.Fprintln(w, formatRecord(b.Records[i]))
				n++
			}
		}
	}
	fmt.Fprintf(w, "%d record(s)\n", n)
}

func formatRecord(r clog2.Record) string {
	base := fmt.Sprintf("[%14.6f] r%-3d %-9s", r.Time, r.Rank, r.Type)
	switch r.Type {
	case clog2.RecStateDef:
		return fmt.Sprintf("%s id=%d start=%d end=%d color=%s name=%q", base, r.ID, r.Aux1, r.Aux2, r.Color, r.Name)
	case clog2.RecEventDef:
		return fmt.Sprintf("%s etype=%d color=%s name=%q", base, r.ID, r.Color, r.Name)
	case clog2.RecConstDef:
		return fmt.Sprintf("%s etype=%d value=%d name=%q", base, r.ID, r.Aux1, r.Name)
	case clog2.RecBareEvt:
		return fmt.Sprintf("%s etype=%d", base, r.ID)
	case clog2.RecCargoEvt:
		return fmt.Sprintf("%s etype=%d cargo=%q", base, r.ID, r.CargoText())
	case clog2.RecMsgEvt:
		dir := "send"
		if r.Dir == clog2.DirRecv {
			dir = "recv"
		}
		return fmt.Sprintf("%s %s peer=%d tag=%d size=%d", base, dir, r.Aux1, r.Aux2, r.Aux3)
	case clog2.RecTimeShift:
		return fmt.Sprintf("%s shift=%+.9f", base, r.Shift)
	case clog2.RecSrcLoc:
		return fmt.Sprintf("%s line=%d file=%q", base, r.Aux1, r.Text)
	}
	return base
}
