// The index-query harness behind `pilot-bench -overhead`: synthesize a
// large CLOG-2 log, index it, and measure seek-based windowed queries
// against the full streaming scan — the numbers behind the "index_query"
// section of BENCH_overhead.json. Every indexed answer is checked
// against the scan answer before its timing is reported: a speedup on a
// wrong answer is worthless.
package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/clog2"
	"repro/internal/idx"
	"repro/internal/stats"
)

// IndexQueryRow is one query's seek-vs-scan measurement on the
// synthesized log.
type IndexQueryRow struct {
	// Name identifies the query shape ("windowed_profile_1pct", ...).
	Name string `json:"name"`
	// LogMB/Blocks/Records describe the synthesized log.
	LogMB   float64 `json:"log_mb"`
	Blocks  int     `json:"blocks"`
	Records int64   `json:"records"`
	// BlocksVisited is how many blocks the index let the query touch.
	BlocksVisited int `json:"blocks_visited"`
	// ScanP50Ns and IndexedP50Ns are median wall times over the
	// repetitions; Speedup is their ratio.
	ScanP50Ns    float64 `json:"scan_p50_ns"`
	IndexedP50Ns float64 `json:"indexed_p50_ns"`
	Speedup      float64 `json:"speedup"`
}

// String renders the row for the pilot-bench console output.
func (r IndexQueryRow) String() string {
	return fmt.Sprintf("%-24s %7.1f MB %6d blocks  scan %12.0f ns  indexed %11.0f ns  (%d visited, %.1fx)",
		r.Name, r.LogMB, r.Blocks, r.ScanP50Ns, r.IndexedP50Ns, r.BlocksVisited, r.Speedup)
}

// synthesizeIndexLog writes a roughly sizeMB log: 16 ranks, one defs
// block, then round-robin per-rank blocks of state pairs and messages
// with globally increasing time — the shape of a long healthy run.
func synthesizeIndexLog(path string, sizeMB int) error {
	const (
		ranks       = 16
		perBlock    = 2048
		avgRecBytes = 20
	)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := clog2.NewWriter(f, ranks)
	if err != nil {
		return err
	}
	if err := w.WriteBlock(0, []clog2.Record{
		{Type: clog2.RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Color: "green", Name: "PI_Write"},
		{Type: clog2.RecEventDef, ID: 7, Color: "white", Name: "Solo"},
	}); err != nil {
		return err
	}
	nblocks := int(int64(sizeMB) << 20 / avgRecBytes / perBlock)
	recs := make([]clog2.Record, perBlock)
	t := 0.0
	const dt = 1e-6
	for blk := 0; blk < nblocks; blk++ {
		rank := int32(blk % ranks)
		for i := 0; i < perBlock; i += 4 {
			t += dt
			recs[i] = clog2.Record{Type: clog2.RecBareEvt, Rank: rank, Time: t, ID: 2}
			t += dt
			recs[i+1] = clog2.Record{Type: clog2.RecMsgEvt, Rank: rank, Time: t,
				Dir: clog2.DirSend, Aux1: (rank + 1) % ranks, Aux2: rank % 8, Aux3: 256}
			t += dt
			recs[i+2] = clog2.Record{Type: clog2.RecBareEvt, Rank: rank, Time: t, ID: 3}
			t += dt
			recs[i+3] = clog2.Record{Type: clog2.RecBareEvt, Rank: rank, Time: t, ID: 7}
		}
		if err := w.WriteBlock(rank, recs); err != nil {
			return err
		}
	}
	return w.Close()
}

// medianNs times fn reps times and returns the median nanoseconds.
func medianNs(reps int, fn func() error) (float64, error) {
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times = append(times, float64(time.Since(start).Nanoseconds()))
	}
	sort.Float64s(times)
	return times[len(times)/2], nil
}

// countIndexed counts q-matching records touching only the selected
// blocks.
func countIndexed(path string, ix *idx.Index, sel []int, q idx.Query) (int64, error) {
	var n int64
	err := idx.ScanFile(path, ix, sel, func(b clog2.Block) error {
		for i := range b.Records {
			if q.Matches(&b.Records[i]) {
				n++
			}
		}
		return nil
	})
	return n, err
}

// countScanned counts q-matching records by streaming the whole file.
func countScanned(path string, q idx.Query) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	br, err := clog2.NewBlockReader(f)
	if err != nil {
		return 0, err
	}
	var n int64
	err = br.Each(func(b clog2.Block) error {
		for i := range b.Records {
			if q.Matches(&b.Records[i]) {
				n++
			}
		}
		return nil
	})
	return n, err
}

// RunIndexQuery synthesizes a sizeMB log under opt.OutDir, indexes it,
// and measures the indexed vs full-scan cost of windowed-profile and
// filtered-search queries (median of reps runs each). Indexed answers
// are verified against the scan answers; a disagreement is an error,
// not a row.
func RunIndexQuery(opt Options, sizeMB, reps int) ([]IndexQueryRow, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	if sizeMB <= 0 {
		return nil, nil
	}
	if reps < 1 {
		reps = 5
	}
	path := filepath.Join(opt.OutDir, fmt.Sprintf("indexbench-%dmb.clog2", sizeMB))
	opt.logf("IQ synthesizing %d MB log at %s", sizeMB, path)
	if err := synthesizeIndexLog(path, sizeMB); err != nil {
		return nil, err
	}
	defer os.Remove(path)
	defer os.Remove(idx.SidecarPath(path))
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	ix, err := idx.Rebuild(path)
	if err != nil {
		return nil, err
	}
	base := IndexQueryRow{
		LogMB:   float64(info.Size()) / (1 << 20),
		Blocks:  len(ix.Blocks),
		Records: ix.TotalRecords,
	}

	// The whole-file event time span, from the fences.
	tmin, tmax := math.Inf(1), math.Inf(-1)
	for i := range ix.Blocks {
		b := &ix.Blocks[i]
		if b.Records <= b.Defs {
			continue
		}
		tmin = math.Min(tmin, b.TMin)
		tmax = math.Max(tmax, b.TMax)
	}
	span := tmax - tmin
	t0 := tmin + 0.495*span
	t1 := tmin + 0.505*span
	var rows []IndexQueryRow

	// Query 1: a windowed profile over 1% of the run, mid-file.
	{
		q := idx.MatchAll()
		q.T0, q.T1, q.IncludeDefs = t0, t1, true
		row := base
		row.Name = "windowed_profile_1pct"
		row.BlocksVisited = len(ix.Select(q))
		var indexed, scanned *stats.Profile
		row.IndexedP50Ns, err = medianNs(reps, func() error {
			indexed, err = stats.ComputeProfileIndexed(path, ix, t0, t1)
			return err
		})
		if err != nil {
			return nil, err
		}
		row.ScanP50Ns, err = medianNs(reps, func() error {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			scanned, err = stats.ComputeProfileWindowed(f, t0, t1)
			return err
		})
		if err != nil {
			return nil, err
		}
		a, _ := indexed.JSON()
		b, _ := scanned.JSON()
		if string(a) != string(b) {
			return nil, fmt.Errorf("indexbench: windowed profile disagrees between index and scan")
		}
		row.Speedup = row.ScanP50Ns / row.IndexedP50Ns
		rows = append(rows, row)
		opt.logf("IQ %s", row)
	}

	// Queries 2 and 3: filtered record counting, the clogdump/search
	// shape — one channel inside the window, one rank over the full span.
	searches := []struct {
		name string
		mod  func(*idx.Query)
	}{
		{"channel_search_1pct", func(q *idx.Query) { q.T0, q.T1, q.Chan = t0, t1, 3 }},
		{"rank_slice_full_span", func(q *idx.Query) { q.Rank = 5 }},
	}
	for _, sc := range searches {
		q := idx.MatchAll()
		sc.mod(&q)
		row := base
		row.Name = sc.name
		sel := ix.Select(q)
		row.BlocksVisited = len(sel)
		var nIndexed, nScanned int64
		row.IndexedP50Ns, err = medianNs(reps, func() error {
			nIndexed, err = countIndexed(path, ix, sel, q)
			return err
		})
		if err != nil {
			return nil, err
		}
		row.ScanP50Ns, err = medianNs(reps, func() error {
			nScanned, err = countScanned(path, q)
			return err
		})
		if err != nil {
			return nil, err
		}
		if nIndexed != nScanned {
			return nil, fmt.Errorf("indexbench: %s found %d indexed vs %d scanned", sc.name, nIndexed, nScanned)
		}
		row.Speedup = row.ScanP50Ns / row.IndexedP50Ns
		rows = append(rows, row)
		opt.logf("IQ %s", row)
	}
	return rows, nil
}
