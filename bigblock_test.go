package repro_test

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/analyze"
	"repro/internal/clog2"
	"repro/internal/stats"
)

// A block holds at most clog2.MaxBlockRecords records (a Writer refuses
// more, a reader refuses a header that declares more), so a reader that
// holds a block holds 480 KiB of records at most: over a log of 100 full
// blocks (409 600 records, 47 MiB as []clog2.Record), a scan for the block
// table, the profile, the verdict of the file and of a stream, a 0.5 %
// window through the table and the diff of the log against itself each
// stay under 4 MB.
//
// A window through the table, once the pools are warm, allocates what it
// keeps: over a log of 200 blocks of 2 048 records a 1 % window stays under
// 64 KB (the scan's block buffer and decode buffer are pooled and the table
// is read into a buffer of its size; it was 451 KB).
func TestBigBlockReadersAllocateBounded(t *testing.T) {
	const perRank = 50 * clog2.MaxBlockRecords
	path := filepath.Join(t.TempDir(), "bigblock.clog2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := clog2.NewWriter(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	cargo := func(tm float64, rank, etype int32, text string) clog2.Record {
		r := clog2.Record{Type: clog2.RecCargoEvt, Time: tm, Rank: rank, ID: etype}
		r.SetCargo(text)
		return r
	}
	for rank := int32(0); rank < 2; rank++ {
		recs := make([]clog2.Record, 0, perRank+2)
		if rank == 0 {
			recs = append(recs,
				clog2.Record{Type: clog2.RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Color: "green", Name: "PI_Write"},
				clog2.Record{Type: clog2.RecStateDef, ID: 2, Aux1: 4, Aux2: 5, Color: "red", Name: "PI_Read"})
		}
		// A ping-pong: rank 0 writes at t, rank 1 reads it 2 µs later. One
		// call in four logs its arrow half: the verdict keeps 16 bytes for
		// each, which is its own state and not a block of records.
		for i := 0; len(recs) < perRank; i++ {
			tm := float64(i)*1e-5 + float64(rank)*2e-6
			dir, etype := clog2.DirSend, int32(2)
			if rank == 1 {
				dir, etype = clog2.DirRecv, 4
			}
			recs = append(recs, cargo(tm, rank, etype, "line: pingpong.go:88"), cargo(tm+1.5e-6, rank, etype+1, ""))
			if i%4 == 0 {
				recs = append(recs, clog2.Record{Type: clog2.RecMsgEvt, Time: tm + 1.6e-6, Rank: rank, Dir: dir, Aux1: 1 - rank, Aux2: 7, Aux3: 8})
			}
		}
		for recs = recs[:perRank]; len(recs) > 0; recs = recs[clog2.MaxBlockRecords:] {
			if err := w.WriteBlock(rank, recs[:clog2.MaxBlockRecords]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	const whole = 2*perRank - 2 // every record but rank 0's two definitions
	calls := []struct {
		name string
		want int64 // records the call must at least have seen
		call func() (int64, error)
	}{
		{"clog2.ScanTable", whole, func() (int64, error) {
			f, err := os.Open(path)
			if err != nil {
				return 0, err
			}
			defer f.Close()
			table, err := clog2.ScanTable(f)
			if err != nil {
				return 0, err
			}
			return table.TotalRecords, nil
		}},
		{"stats.ComputeProfileFile", whole, func() (int64, error) {
			p, err := stats.ComputeProfileFile(path)
			if err != nil {
				return 0, err
			}
			return p.Totals.Records, nil
		}},
		{"stats.ComputeProfileFileWindowed", 1, func() (int64, error) {
			span := float64(perRank) / 2.25 * 1e-5 // a record in 2.25 moves i on
			p, indexed, err := stats.ComputeProfileFileWindowed(path, 0.4*span, 0.405*span)
			if err != nil {
				return 0, err
			}
			if !indexed {
				return 0, errors.New("the window was not answered through the table")
			}
			return p.Totals.Records, nil
		}},
		{"analyze.DiffFiles", 1, func() (int64, error) {
			rep, err := analyze.DiffFiles(path, path, analyze.DiffOptions{})
			if err != nil {
				return 0, err
			}
			if !rep.Identical {
				return 0, errors.New("the log differs from itself")
			}
			return 1, nil
		}},
		{"analyze.AnalyzeFile", whole, func() (int64, error) {
			rep, err := analyze.AnalyzeFile(path, analyze.Options{})
			if err != nil {
				return 0, err
			}
			return rep.Records, nil
		}},
		{"analyze.Analyze", whole, func() (int64, error) {
			f, err := os.Open(path)
			if err != nil {
				return 0, err
			}
			defer f.Close()
			rep, err := analyze.Analyze(f, analyze.Options{})
			if err != nil {
				return 0, err
			}
			return rep.Records, nil
		}},
	}
	// A block buffer comes from a sync.Pool, which a collection empties
	// (two, from its victim cache) and which may miss: the least of three
	// calls is what a call itself allocates.
	for _, c := range calls {
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			records, err := c.call()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if records < c.want {
				t.Fatalf("%s saw %d records, want at least %d", c.name, records, c.want)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > 4<<20 {
			t.Errorf("%s allocated %d bytes over 100 blocks of %d records: it holds more than a block of them", c.name, least, clog2.MaxBlockRecords)
		} else {
			t.Logf("%s allocated %d bytes", c.name, least)
		}
	}

	const blocks, perBlock = 200, 2048
	many := filepath.Join(t.TempDir(), "manyblocks.clog2")
	if f, err = os.Create(many); err != nil {
		t.Fatal(err)
	}
	if w, err = clog2.NewWriter(f, 2); err != nil {
		t.Fatal(err)
	}
	recs := make([]clog2.Record, 0, perBlock+1)
	for b := 0; b < blocks; b++ {
		recs = recs[:0]
		if b == 0 {
			recs = append(recs, clog2.Record{Type: clog2.RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Color: "green", Name: "PI_Write"})
		}
		for i := 0; i < perBlock; i += 2 {
			tm := float64(b*perBlock+i) * 1e-5
			recs = append(recs, cargo(tm, int32(b%2), 2, "line: pingpong.go:88"), cargo(tm+5e-6, int32(b%2), 3, ""))
		}
		if err := w.WriteBlock(int32(b%2), recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	span := float64(blocks*perBlock) * 1e-5
	window := func() {
		p, indexed, err := stats.ComputeProfileFileWindowed(many, 0.40*span, 0.41*span)
		if err != nil || !indexed || p.Totals.Records == 0 {
			t.Fatalf("1 %% window: %d records, indexed %v, err %v", p.Totals.Records, indexed, err)
		}
	}
	// The scan's two buffers come from sync.Pools, which may miss (a pool is
	// per P, and under the race detector drops a Put in four): the least of
	// a few warm calls is what a window itself allocates.
	window() // fills the pools
	least := uint64(math.MaxUint64)
	for try := 0; try < 20 && least > 64<<10; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		window()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 64<<10 {
		t.Errorf("a warm indexed 1 %% window over %d blocks allocated %d bytes", blocks, least)
	} else {
		t.Logf("a warm indexed 1 %% window over %d blocks allocated %d bytes", blocks, least)
	}
}

// The bound holds by construction: a Writer refuses a block of
// MaxBlockRecords+1 records by name, and a reader refuses a header that
// declares that many by name before it decodes a record, here with every
// record it declares lying behind it.
func TestBlocksAreBoundedByConstruction(t *testing.T) {
	recs := make([]clog2.Record, clog2.MaxBlockRecords+1)
	for i := range recs {
		recs[i] = clog2.Record{Type: clog2.RecBareEvt, Time: float64(i), ID: 2}
	}
	w, err := clog2.NewWriter(io.Discard, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBlock(0, recs); err == nil || !strings.Contains(err.Error(), "MaxBlockRecords") {
		t.Fatalf("WriteBlock of %d records: %v", len(recs), err)
	}
	if err := w.WriteBlock(0, recs[:clog2.MaxBlockRecords]); err != nil {
		t.Fatalf("WriteBlock of a full block: %v", err)
	}

	log := clog2.AppendBlockHeader(clog2.AppendHeader(nil, 1), 0, len(recs))
	for i := range recs {
		if log, err = clog2.AppendRecord(log, &recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	log = append(log, byte(clog2.RecEndBlock), byte(clog2.RecEndLog))
	br, err := clog2.NewBlockReader(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = br.NextReuse(nil)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "declares 4097 records (MaxBlockRecords is 4096)") {
		t.Fatalf("a header declaring %d records: %v", len(recs), err)
	}
	if got, block := after.TotalAlloc-before.TotalAlloc, uint64(clog2.MaxBlockRecords)*uint64(unsafe.Sizeof(clog2.Record{})); got >= block {
		t.Fatalf("refusing the header allocated %d bytes, a block of records is %d", got, block)
	}
}
