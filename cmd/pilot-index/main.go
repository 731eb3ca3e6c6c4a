// Command pilot-index reports on the block table a CLOG-2 log carries at
// its end, which lets consumers seek to the blocks a time/rank/channel
// query can touch instead of streaming the whole log.
//
// Usage:
//
//	pilot-index info   run.clog2   print the table's state and summary
//	pilot-index verify run.clog2   prove indexed == full-scan answers
//
// A log without a usable table (written before logs carried one, cut
// short, or failing validation) is "degraded": every consumer answers it
// with the full scan, and the reason is printed. verify checks that a
// valid table is the one a scan of the log makes, then replays a battery
// of windowed profile and record-selection queries through the path every
// consumer takes (idx.Walk) and through the full scan, and exits 1 on any
// disagreement, or when a table that validated was not what answered —
// the equality contract the whole index design rests on, checkable on any
// log. Exits 0 on success, 1 on error or mismatch, 2 on usage errors.
package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"

	"repro/internal/clog2"
	"repro/internal/idx"
	"repro/internal/stats"
)

func main() {
	if len(os.Args) != 3 {
		usage()
	}
	cmd, path := os.Args[1], os.Args[2]
	var err error
	switch cmd {
	case "info":
		err = runInfo(path)
	case "verify":
		err = runVerify(path)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pilot-index:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: pilot-index info|verify run.clog2")
	os.Exit(2)
}

// load reads the table of the log at path and prints its state: ok, or
// degraded and why. Only an error that is not about the table (the file
// cannot be opened) is returned.
func load(path string) (*idx.Index, error) {
	ix, err := idx.Load(path)
	switch {
	case err == nil:
		fmt.Printf("table: %s\n", idx.StatusOK)
	case errors.Is(err, clog2.ErrNoTable):
		fmt.Printf("table: %s (%v)\n", idx.StatusDegraded, err)
	default:
		return nil, err
	}
	return ix, nil
}

func runInfo(path string) error {
	ix, err := load(path)
	if err != nil || ix == nil {
		return err
	}
	tmin, tmax := timeSpan(ix)
	fmt.Printf("ranks: %d, blocks: %d, records: %d\n", ix.NumRanks, len(ix.Blocks), ix.TotalRecords)
	if tmin <= tmax {
		fmt.Printf("time span: [%.6f, %.6f]s\n", tmin, tmax)
	}
	fmt.Println("per-channel totals: pilot-profile", path)
	return nil
}

// timeSpan folds the block fences into the whole-file event time span.
func timeSpan(ix *idx.Index) (tmin, tmax float64) {
	tmin, tmax = math.Inf(1), math.Inf(-1)
	for i := range ix.Blocks {
		b := &ix.Blocks[i]
		if b.Records <= b.Defs {
			continue
		}
		tmin = math.Min(tmin, b.TMin)
		tmax = math.Max(tmax, b.TMax)
	}
	return tmin, tmax
}

func runVerify(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	scanned, err := clog2.ScanTable(f)
	f.Close()
	if err != nil {
		return err
	}
	ix, err := load(path)
	if err != nil {
		return err
	}
	want := idx.StatusOK
	if ix == nil {
		// Every answer is the scan's; the battery is drawn from it.
		want, ix = idx.StatusDegraded, (*idx.Index)(scanned)
	} else if !bytes.Equal(clog2.AppendTable(nil, (*clog2.Table)(ix)), clog2.AppendTable(nil, scanned)) {
		// Invariant 1: the table the log carries is the one a scan of the
		// log makes, entry for entry.
		return fmt.Errorf("%s: the table differs from a scan of the log", path)
	}

	// Invariant 2: windowed profiles agree between the path consumers take
	// and the full scan, across a battery of windows derived from the
	// file's own time span (plus an empty window past the end).
	tmin, tmax := timeSpan(ix)
	if tmin > tmax {
		tmin, tmax = 0, 0
	}
	mid := tmin + (tmax-tmin)/2
	windows := [][2]float64{
		{math.Inf(-1), math.Inf(1)},
		{tmin, tmax},
		{tmin, mid},
		{mid, tmax},
		{tmin + (tmax-tmin)/4, tmin + 3*(tmax-tmin)/4},
		{tmax + 1, tmax + 2}, // empty
	}
	checked := 0
	for _, w := range windows {
		if err := verifyProfileWindow(path, want, w[0], w[1]); err != nil {
			return err
		}
		checked++
	}

	// Invariant 3: record selection (the clogdump filters) agrees for
	// time, rank and channel queries.
	queries := []idx.Query{}
	for r := 0; r < ix.NumRanks && r < 8; r++ {
		q := idx.MatchAll()
		q.Rank = int32(r)
		q.IncludeDefs = true
		queries = append(queries, q)
	}
	// Up to eight channels the block fences name: each carries a message.
	for i, most := 0, len(queries)+8; i < len(ix.Blocks) && len(queries) < most; i++ {
		q := idx.MatchAll()
		q.Chan = ix.Blocks[i].ChanMin
		q.IncludeDefs = true
		if ix.Blocks[i].Msgs > 0 && !slices.Contains(queries, q) {
			queries = append(queries, q)
		}
	}
	for _, w := range windows {
		q := idx.MatchAll()
		q.T0, q.T1 = w[0], w[1]
		q.IncludeDefs = true
		queries = append(queries, q)
	}
	for _, q := range queries {
		if err := verifySelection(path, want, q); err != nil {
			return err
		}
		checked++
	}
	fmt.Printf("%s: %d quer(ies) byte-identical to the full scan (table %s)\n", path, checked, want)
	return nil
}

func verifyProfileWindow(path string, want idx.Status, t0, t1 float64) error {
	walked, used, err := stats.ComputeProfileFileWindowed(path, t0, t1)
	if err != nil {
		return fmt.Errorf("windowed profile [%g,%g]: %w", t0, t1, err)
	}
	if used != (want == idx.StatusOK) {
		return fmt.Errorf("window [%g,%g]: the table answered: %v, but it is %s", t0, t1, used, want)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	scanned, err := stats.ComputeProfileWindowed(f, t0, t1)
	f.Close()
	if err != nil {
		return err
	}
	a, err := walked.JSON()
	if err != nil {
		return err
	}
	b, err := scanned.JSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("window [%g,%g]: windowed profile differs from full scan", t0, t1)
	}
	return nil
}

func verifySelection(path string, want idx.Status, q idx.Query) error {
	var walked, scanned []clog2.Record
	collect := func(dst *[]clog2.Record) func(clog2.Block) error {
		*dst = (*dst)[:0]
		return func(b clog2.Block) error {
			for i := range b.Records {
				if q.Matches(&b.Records[i]) {
					*dst = append(*dst, b.Records[i])
				}
			}
			return nil
		}
	}
	st, err := idx.Walk(path, q, func(int) func(clog2.Block) error { return collect(&walked) })
	if err != nil {
		return fmt.Errorf("selection %+v: %w", q, err)
	}
	if st != want {
		return fmt.Errorf("query %+v: answered %s, but the table is %s", q, st, want)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br, err := clog2.NewBlockReader(f)
	if err != nil {
		return err
	}
	if err := br.Each(collect(&scanned)); err != nil {
		return err
	}
	if len(walked) != len(scanned) {
		return fmt.Errorf("query %+v: the table selected %d record(s), full scan %d", q, len(walked), len(scanned))
	}
	for i := range walked {
		if walked[i] != scanned[i] {
			return fmt.Errorf("query %+v: record %d differs between the table's answer and the full scan", q, i)
		}
	}
	return nil
}
