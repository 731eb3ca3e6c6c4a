// Command clogdump prints the raw records of a CLOG-2 file — the
// diagnostic use the paper gives for keeping the two-step conversion
// pipeline: "the conversion step can be useful for diagnosing problems
// with the log contents, say, due to improper use of MPE's API".
//
// Usage:
//
//	clogdump [-rank N] [-type NAME] [-defs] [-t0 T] [-t1 T] [-channel C] in.clog2
//	clogdump -verify in.clog2
//
// -t0/-t1 bound the time window (inclusive) and -rank keeps one rank's
// records; definition records are the log's metadata and pass both. These
// three are the clog2.Query the records are read through (clog2.Walk): when
// the log ends in a valid block table, a filtered dump seeks straight to
// the blocks the query can touch instead of decoding the whole log, and the
// output is identical either way. Of what the query selects, -type keeps
// one record type (an unknown name is refused), -defs keeps definitions
// (clog2.RecType.IsDef) and -channel keeps message events on one channel
// (tag).
//
// One rule judges a log that cannot be read to its end-log marker, in a
// dump and under -verify alike. When its block table validates, the log is
// corrupt: the error is printed and clogdump exits 1. Without a table it is
// torn, as a spill fragment from an aborted run is: its complete blocks are
// shown or summed up, with a warning, and clogdump exits 0.
//
// -verify dumps no records. It prints the state of the log's block table
// ("table: ok", or "table: degraded" and why: a log without a usable table
// is answered by the full scan), the log's ranks, blocks, records and time
// span, and then checks that the table the log carries is the one
// clog2.ScanTable makes of the log, entry for entry: a fence that lies
// under a valid CRC passes every check a reader makes and drops records
// from windowed answers. A mismatch names the first entry that differs and
// exits 1. Exits 0 on success, 1 on an error or a mismatch, 2 on usage
// errors.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/clog2"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command over args, writing to stdout and stderr; it returns
// the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clogdump", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rank := fs.Int("rank", -1, "only records from this rank (defs always pass)")
	typ := fs.String("type", "", "only records of this type (StateDef, CargoEvt, MsgEvt, ...)")
	defsOnly := fs.Bool("defs", false, "only definition records")
	t0 := fs.Float64("t0", math.Inf(-1), "only records at or after this timestamp (defs always pass)")
	t1 := fs.Float64("t1", math.Inf(1), "only records at or before this timestamp (defs always pass)")
	channel := fs.Int("channel", -1, "only message events on this channel (tag)")
	verify := fs.Bool("verify", false, "dump nothing: print the block table's state and the log's summary, and check the table against a scan of the log")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	filtered := false
	fs.Visit(func(f *flag.Flag) { filtered = filtered || f.Name != "verify" })
	if fs.NArg() != 1 || *verify && filtered {
		fmt.Fprintln(stderr, "usage: clogdump [-rank N] [-type NAME] [-defs] [-t0 T] [-t1 T] [-channel C] in.clog2")
		fmt.Fprintln(stderr, "       clogdump -verify in.clog2")
		return 2
	}
	if *verify {
		if err := verifyTable(stdout, stderr, fs.Arg(0)); err != nil {
			fmt.Fprintln(stderr, "clogdump:", err)
			return 1
		}
		return 0
	}
	want, err := parseType(*typ)
	if err == nil {
		err = clog2.CheckWindow(*t0, *t1)
	}
	if err != nil {
		fmt.Fprintln(stderr, "clogdump:", err)
		return 2
	}

	q := clog2.Query{T0: *t0, T1: *t1, Rank: int32(*rank), IncludeDefs: true}
	match := func(rec *clog2.Record) bool {
		return (*channel < 0 || rec.Type == clog2.RecMsgEvt && rec.Aux2 == int32(*channel)) &&
			(*typ == "" || rec.Type == want) && (!*defsOnly || rec.Type.IsDef())
	}
	if err := dump(stdout, stderr, fs.Arg(0), q, match); err != nil {
		fmt.Fprintln(stderr, "clogdump:", err)
		return 1
	}
	return 0
}

// parseType is the record type -type names, in any case; "" names none.
func parseType(name string) (clog2.RecType, error) {
	var names []string
	for t := clog2.RecStateDef; t <= clog2.RecTimeShift; t++ {
		if strings.EqualFold(t.String(), name) {
			return t, nil
		}
		names = append(names, t.String())
	}
	if name == "" {
		return 0, nil
	}
	return 0, fmt.Errorf("unknown record type %q (one of %s)", name, strings.Join(names, ", "))
}

// dump writes the records of the log at path that q selects and match
// keeps to w, through clog2.Walk. The output is buffered until the walk
// ends, and starts over whenever the walk begins again (a table caught lying
// mid-scan), so that no half-answer is printed. A log the walk began and could not read to its
// end-log marker is judged by torn: the walk has handed over its complete
// blocks, so a spill fragment from an aborted run is dumped as far as they
// go, with a warning to warn.
func dump(w, warn io.Writer, path string, q clog2.Query, match func(*clog2.Record) bool) error {
	var out bytes.Buffer
	n, began := 0, false
	begin := func(numRanks int) func(clog2.Block) error {
		out.Reset()
		n, began = 0, true
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
	if _, err := clog2.Walk(path, q, begin); err != nil {
		if !began {
			return err
		}
		_, tableErr := clog2.LoadTable(path)
		if err := torn(warn, err, tableErr == nil, "showing complete blocks only"); err != nil {
			return err
		}
	}
	fmt.Fprintf(&out, "%d record(s)\n", n)
	_, err := out.WriteTo(w)
	return err
}

// torn is the one rule for a log that cannot be read to its end-log marker
// (err, from clog2's Each): when its block table validates the log is
// corrupt, and err stands; without one, a log cut short is torn, a spill
// fragment from an aborted run, and its complete blocks stand, with a
// warning to warn that says what is shown of them. A log refused for what
// it holds (a block that breaks the rule of a block) is not torn: err
// stands.
func torn(warn io.Writer, err error, hasTable bool, shown string) error {
	if err == nil || hasTable || !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return err
	}
	fmt.Fprintln(warn, "warning: file is torn (no end-log marker); "+shown)
	return nil
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
	}
	return base
}

// verifyTable prints the state of the block table of the log at path and
// the log's summary to w, and returns an error when the table the log
// carries is not the one a scan of the log makes (clog2.ScanTable). A log
// the scan cannot read to its end-log marker is judged by torn, as dump
// judges it: a torn one is summed up as far as its complete blocks go.
func verifyTable(w, warn io.Writer, path string) error {
	carried, err := clog2.LoadTable(path)
	switch {
	case err == nil:
		fmt.Fprintln(w, "table: ok")
	case errors.Is(err, clog2.ErrNoTable):
		fmt.Fprintf(w, "table: degraded (%v)\n", err)
	default:
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	scanned, err := clog2.ScanTable(f)
	if scanned == nil {
		return err
	}
	if err := torn(warn, err, carried != nil, "summary of its complete blocks only"); err != nil {
		return err
	}
	fmt.Fprintf(w, "ranks: %d, blocks: %d, records: %d\n", scanned.NumRanks, len(scanned.Blocks), scanned.TotalRecords)
	tmin, tmax := math.Inf(1), math.Inf(-1)
	for _, b := range scanned.Blocks {
		if b.Records > b.Defs {
			tmin, tmax = min(tmin, b.TMin), max(tmax, b.TMax)
		}
	}
	if tmin <= tmax {
		fmt.Fprintf(w, "time span: [%.6f, %.6f]s\n", tmin, tmax)
	}
	if carried == nil {
		return nil
	}
	// ReadTable has checked that the entries sum to the table's record
	// count, so a table that differs from the scan's differs in an entry or
	// in how many it has.
	for i := range min(len(carried.Blocks), len(scanned.Blocks)) {
		if carried.Blocks[i] != scanned.Blocks[i] {
			return fmt.Errorf("%s: block %d of the table is not the scan's:\n table %+v\n scan  %+v", path, i, carried.Blocks[i], scanned.Blocks[i])
		}
	}
	if len(carried.Blocks) != len(scanned.Blocks) {
		return fmt.Errorf("%s: the table has %d block(s), a scan of the log %d", path, len(carried.Blocks), len(scanned.Blocks))
	}
	return nil
}
