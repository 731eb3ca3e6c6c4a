package mpe_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/clog2"
	"repro/internal/mpe"
)

// FuzzSalvageFragment throws arbitrary bytes on disk as a rank fragment
// (next to a valid defs spill and one healthy sibling rank) and demands
// that the whole salvage pipeline never panics, never errors, always
// produces a readable CLOG-2 file, and never loses the healthy sibling.
func FuzzSalvageFragment(f *testing.F) {
	// Build the run once; per exec only the four small files are written.
	seedPrefix := filepath.Join(f.TempDir(), "seed.clog2")
	abortedRun(f, seedPrefix)
	readPart := func(suffix string) []byte {
		data, err := os.ReadFile(seedPrefix + suffix)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	defs := readPart(".defs.spill")
	rank0 := readPart(".rank0.spill")
	seed := readPart(".rank1.spill")
	rank2 := readPart(".rank2.spill")

	f.Add(seed)
	f.Add(seed[:len(seed)-7]) // torn tail
	f.Add([]byte{})
	f.Add([]byte(clog2.Magic + " but then lies"))
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		prefix := filepath.Join(t.TempDir(), "run.clog2")
		for _, part := range []struct {
			suffix string
			data   []byte
		}{
			{".defs.spill", defs},
			{".rank0.spill", rank0},
			{".rank1.spill", data},
			{".rank2.spill", rank2},
		} {
			if err := os.WriteFile(prefix+part.suffix, part.data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var out bytes.Buffer
		rep, err := mpe.SalvageWithReport(prefix, &out)
		if err != nil {
			t.Fatalf("salvage errored on fuzzed fragment: %v", err)
		}
		if _, err := clog2.ScanTable(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("merged log unreadable: %v", err)
		}
		for _, r := range rep.Ranks {
			if r.Rank != 1 && (r.SegmentsMissing > 0 || r.SegmentsSkipped > 0 || r.BytesQuarantined > 0) {
				t.Fatalf("fuzzed rank 1 fragment damaged rank %d: %+v", r.Rank, r)
			}
			if r.Rank == 1 &&
				int64(r.SegmentsRecovered+r.SegmentsSkipped+r.SegmentsMissing) != r.SegmentsWritten {
				t.Fatalf("accounting open on fuzzed fragment: %+v", r)
			}
		}
	})
}
