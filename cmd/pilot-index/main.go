// Command pilot-index manages the ".idx" index sidecars that let
// CLOG-2 consumers seek to the blocks a time/rank/channel query can
// touch instead of streaming the whole log.
//
// Usage:
//
//	pilot-index build  run.clog2   rebuild the sidecar (full scan)
//	pilot-index info   run.clog2   print the sidecar's state and summary
//	pilot-index verify run.clog2   prove indexed == full-scan answers
//
// verify builds a sidecar if none is valid, then replays a battery of
// windowed profile and record-selection queries through both the
// indexed and full-scan paths and exits 1 on any disagreement — the
// equality contract the whole index design rests on, checkable on any
// log. Exits 0 on success, 1 on error or mismatch, 2 on usage errors.
package main

import (
	"bytes"
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
	case "build":
		err = runBuild(path)
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
	fmt.Fprintln(os.Stderr, "usage: pilot-index build|info|verify run.clog2")
	os.Exit(2)
}

func runBuild(path string) error {
	ix, err := idx.Rebuild(path)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d block(s), %d record(s) -> %s\n",
		path, len(ix.Blocks), ix.TotalRecords, idx.SidecarPath(path))
	return nil
}

func runInfo(path string) error {
	st := idx.Probe(path)
	fmt.Printf("sidecar: %s (%s)\n", idx.SidecarPath(path), st)
	if st != idx.StatusOK {
		return nil
	}
	ix, err := idx.Load(path)
	if err != nil {
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
	ix, err := idx.Load(path)
	if err != nil {
		fmt.Printf("sidecar %s: %v; rebuilding\n", idx.SidecarPath(path), err)
		if ix, err = idx.Rebuild(path); err != nil {
			return err
		}
	}
	// Invariant 1: the sidecar on disk must equal a from-scratch rebuild
	// (modulo the generation stamp) — inline merge emission and the
	// full-scan rebuild describe the same file identically.
	rebuilt, err := idx.BuildFile(path)
	if err != nil {
		return err
	}
	rebuilt.SourceSize, rebuilt.SourceModNanos = ix.SourceSize, ix.SourceModNanos
	if !bytes.Equal(idx.Encode(rebuilt), idx.Encode(ix)) {
		return fmt.Errorf("%s: sidecar does not match a full-scan rebuild", path)
	}

	// Invariant 2: windowed profiles agree between the indexed and
	// full-scan paths, across a battery of windows derived from the
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
		if err := verifyProfileWindow(path, ix, w[0], w[1]); err != nil {
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
		if err := verifySelection(path, ix, q); err != nil {
			return err
		}
		checked++
	}
	fmt.Printf("%s: %d indexed quer(ies) byte-identical to the full scan\n", path, checked)
	return nil
}

func verifyProfileWindow(path string, ix *idx.Index, t0, t1 float64) error {
	indexed, err := stats.ComputeProfileIndexed(path, ix, t0, t1)
	if err != nil {
		return fmt.Errorf("indexed profile [%g,%g]: %w", t0, t1, err)
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
	a, err := indexed.JSON()
	if err != nil {
		return err
	}
	b, err := scanned.JSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("window [%g,%g]: indexed profile differs from full scan", t0, t1)
	}
	return nil
}

func verifySelection(path string, ix *idx.Index, q idx.Query) error {
	var indexed []clog2.Record
	err := idx.ScanFile(path, ix, ix.Select(q), func(b clog2.Block) error {
		for i := range b.Records {
			if q.Matches(&b.Records[i]) {
				indexed = append(indexed, b.Records[i])
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("indexed selection %+v: %w", q, err)
	}
	var scanned []clog2.Record
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br, err := clog2.NewBlockReader(f)
	if err != nil {
		return err
	}
	err = br.Each(func(b clog2.Block) error {
		for i := range b.Records {
			if q.Matches(&b.Records[i]) {
				scanned = append(scanned, b.Records[i])
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(indexed) != len(scanned) {
		return fmt.Errorf("query %+v: indexed selected %d record(s), full scan %d", q, len(indexed), len(scanned))
	}
	for i := range indexed {
		if indexed[i] != scanned[i] {
			return fmt.Errorf("query %+v: record %d differs between indexed and full scan", q, i)
		}
	}
	return nil
}
