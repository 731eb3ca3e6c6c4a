package clog2_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/clog2"
	"repro/internal/mpe"
	"repro/internal/mpi"
)

// lab2ShapedSpill writes a real v2 spill fragment through the mpe
// write-through path, with the record mix a lab2 worker produces (Compute
// state, PI_Read/PI_Write pairs with source-location cargo, message
// halves), and returns the fragment's bytes — the fuzz seed corpus.
func lab2ShapedSpill(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	prefix := filepath.Join(dir, "lab2.clog2")
	w := mpi.NewWorld(3, mpi.Options{})
	g := mpe.NewGroup(w, true)
	g.EnableSpill(prefix)
	compute := g.DescribeState("Compute", "gray")
	read := g.DescribeState("PI_Read", "red")
	write := g.DescribeState("PI_Write", "green")
	arrival := g.DescribeEvent("MsgArrival", "yellow")
	if err := g.SpillDefs(); err != nil {
		t.Fatal(err)
	}
	l := g.Logger(1)
	l.StateStart(compute, "proc: W1 idx: 0")
	for i := 0; i < 8; i++ {
		l.StateStart(read, "line: lab2.go:57")
		l.LogRecvEvent(0, 21, 8, arrival, []byte("chan: C1"))
		l.StateEnd(read, "")
		l.StateStart(write, "line: lab2.go:64")
		l.LogSend(0, 22, 8)
		l.StateEnd(write, "")
	}
	data, err := os.ReadFile(prefix + ".rank1.spill")
	if err != nil {
		t.Fatal(err)
	}
	if segs, stats := clog2.ScanSegments(data); len(segs) == 0 || stats.BytesQuarantined != 0 {
		t.Fatalf("spill fragment of %d bytes: %d segments, %+v", len(data), len(segs), stats)
	}
	return data
}

// FuzzSalvageSegments drives the segment scanner with arbitrary bytes and
// with valid/corrupt splices. The contract: never panic, account for
// every input byte as either recovered-segment bytes or quarantined
// bytes, and — when valid segments are spliced around the fuzz input —
// recover every one of them regardless of what the input contains.
func FuzzSalvageSegments(f *testing.F) {
	spill := lab2ShapedSpill(f)
	f.Add(spill)
	f.Add(spill[:len(spill)/2])                // torn mid-segment
	f.Add(spill[3:])                           // head shorn off
	f.Add([]byte{})                            // empty fragment
	f.Add(bytes.Repeat(clog2.SegMarker(), 40)) // marker-dense junk
	flipped := append([]byte(nil), spill...)
	flipped[len(flipped)/3] ^= 0xFF
	f.Add(flipped)

	// Fixed valid segments to splice around the fuzz input.
	rec := clog2.Record{Type: clog2.RecCargoEvt, Time: 1.5, Rank: 2, ID: 4}
	rec.SetCargo("line: splice.go:1")
	payload, err := clog2.AppendBlock(nil, 2, []clog2.Record{rec})
	if err != nil {
		f.Fatal(err)
	}
	valid := make([][]byte, 3)
	for i := range valid {
		valid[i] = clog2.AppendSegment(nil, 2, uint64(i), payload)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Raw scan: no panic, full byte accounting.
		segs, stats := clog2.ScanSegments(data)
		var recovered int64
		for _, s := range segs {
			recovered += int64(clog2.SegHeaderSize + len(s.Payload))
			// Payload decode must not panic either; errors are fine (a
			// CRC-valid frame holding a non-block payload is corrupt).
			_, _ = clog2.DecodeBlockPayload(s.Payload, s.Rank)
		}
		if recovered+stats.BytesQuarantined != int64(len(data)) {
			t.Fatalf("scan accounting: %d recovered + %d quarantined != %d input",
				recovered, stats.BytesQuarantined, len(data))
		}

		// Splice: valid segments interleaved with the fuzz input as
		// damage. Every uncorrupted segment must be recovered.
		half := len(data) / 2
		var file []byte
		file = append(file, valid[0]...)
		file = append(file, data[:half]...)
		file = append(file, valid[1]...)
		file = append(file, data[half:]...)
		file = append(file, valid[2]...)
		got, _ := clog2.ScanSegments(file)
		found := make([]bool, len(valid))
		for _, s := range got {
			if s.Rank == 2 && s.Seq < uint64(len(valid)) && bytes.Equal(s.Payload, payload) {
				found[s.Seq] = true
			}
		}
		for i, ok := range found {
			if !ok {
				t.Fatalf("spliced segment %d not recovered (input %d bytes)", i, len(data))
			}
		}
	})
}
