// Command clogdump prints the raw records of a CLOG-2 file — the
// diagnostic use the paper gives for keeping the two-step conversion
// pipeline: "the conversion step can be useful for diagnosing problems
// with the log contents, say, due to improper use of MPE's API".
//
// Usage:
//
//	clogdump [-rank N] [-type NAME] [-defs] [-t0 T] [-t1 T] [-channel C] in.clog2
//
// -t0/-t1 bound the time window (inclusive; definition records are
// metadata and always pass the window), -rank keeps one rank's records,
// -channel keeps message events on one channel (tag). The records are
// read through idx.Walk: when the log ends in a valid block table, a
// filtered dump seeks straight to the blocks the query can touch instead
// of decoding the whole log; the output is identical either way. Works on
// spill fragments from aborted runs too: a file with no end-log marker
// shows its complete blocks.
package main

import (
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
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: clogdump [-rank N] [-type NAME] [-defs] [-t0 T] [-t1 T] [-channel C] in.clog2")
		os.Exit(2)
	}
	if *t1 < *t0 {
		fmt.Fprintf(os.Stderr, "clogdump: empty time window [%g,%g]\n", *t0, *t1)
		os.Exit(2)
	}

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
	if err := dump(os.Stdout, os.Stderr, flag.Arg(0), q, match); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// dump writes the records of the log at path that match to w, through
// idx.Walk. The output is buffered until the walk ends, and starts over
// whenever Walk begins again (a table caught lying mid-scan), so that no
// half-answer is printed. A log the walk cannot read to its end-log marker
// is dumped as far as its complete blocks go (ReadLenient: a spill
// fragment from an aborted run), with a warning to warn.
func dump(w, warn io.Writer, path string, q idx.Query, match func(*clog2.Record) bool) error {
	var out bytes.Buffer
	n := 0
	begin := func(numRanks int) func(clog2.Block) error {
		out.Reset()
		n = 0
		fmt.Fprintf(&out, "ranks: %d\n", numRanks)
		return func(b clog2.Block) error {
			for i := range b.Records {
				if match(&b.Records[i]) {
					fmt.Fprintln(&out, formatRecord(b.Records[i]))
					n++
				}
			}
			return nil
		}
	}
	if _, err := idx.Walk(path, q, begin); err != nil {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		log, complete, err := clog2.ReadLenient(f)
		f.Close()
		if err != nil {
			return err
		}
		if !complete {
			fmt.Fprintln(warn, "warning: file is torn (no end-log marker); showing complete blocks only")
		}
		visit := begin(log.NumRanks)
		for _, b := range log.Blocks {
			visit(b)
		}
	}
	fmt.Fprintf(&out, "%d record(s)\n", n)
	_, err := out.WriteTo(w)
	return err
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
