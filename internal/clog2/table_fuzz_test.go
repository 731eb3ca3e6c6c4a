package clog2

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"
)

// fuzzSeedLog writes a small real log, table and footer included, to seed
// the corpus with a structurally valid tail (mutations of which probe
// every validation branch, not just the signature check).
func fuzzSeedLog(f *testing.F) []byte {
	f.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 2)
	if err != nil {
		f.Fatal(err)
	}
	for rank := int32(0); rank < 2; rank++ {
		recs := []Record{
			{Type: RecBareEvt, Rank: rank, Time: float64(rank) + 0.5, ID: 2},
			{Type: RecMsgEvt, Rank: rank, Time: float64(rank) + 0.7,
				Dir: DirSend, Aux1: 1 - rank, Aux2: 5, Aux3: 64},
		}
		if rank == 0 { // definitions sit in rank 0's blocks
			recs = append([]Record{{Type: RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Name: "A", Color: "red"}}, recs...)
		}
		if err := w.WriteBlock(rank, recs); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadTable asserts the table and footer decoder never panics or
// over-allocates on hostile bytes; that anything it accepts re-encodes to
// the bytes it was read from (the format has exactly one encoding per
// table); that every table it accepts either passes scan's checked
// reading of all its blocks, reading then what the plain scan reads, or
// is caught by it as corrupt; and, for every log the plain scan reads to
// its end, that queries derived from the input (windows of infinite bounds
// and record times, every rank or a record's) are refused by CheckWindow
// or answered, by the degraded scan and by the table's selection alike,
// with exactly the records of the plain scan the query selects (selects).
// The selection is held to that only when the table is the one ScanTable
// makes of the log, which clogdump -verify checks: the CRC covers the
// table, not the blocks, so a record whose time moved outside its entry's
// fence under a valid table (testdata/fuzz/FuzzReadTable/d9fa0bbb13450dc8,
// a block of rank 1, which holds no definition for IncludeDefs to select
// it by) makes Select skip a block no reader of the blocks it selects can
// see.
func FuzzReadTable(f *testing.F) {
	valid := fuzzSeedLog(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(Magic))
	// A few targeted mutants so the fuzzer starts at the deep branches.
	flip := append([]byte(nil), valid...)
	flip[len(flip)-FooterSize-40] ^= 0x40
	f.Add(flip)
	short := append([]byte(nil), valid[:len(valid)-9]...)
	f.Add(short)
	noFooter := append([]byte(nil), valid[:len(valid)-FooterSize]...)
	f.Add(noFooter)
	bigCounts := append([]byte(nil), valid...)
	at := binary.LittleEndian.Uint64(bigCounts[len(bigCounts)-FooterSize:])
	binary.LittleEndian.PutUint32(bigCounts[at:], math.MaxUint32)
	f.Add(restamp(bigCounts))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The records the plain scan reads, when it reads to the end-log
		// marker.
		var plain []Record
		br, err := NewBlockReader(bytes.NewReader(data))
		if err == nil {
			err = br.Each(func(b Block) error {
				plain = append(plain, b.Records...)
				return nil
			})
		}
		decoded := err == nil

		var ix *Table
		truthful := true // ix is the table a scan makes of the log
		if table, err := ReadTable(bytes.NewReader(data), int64(len(data))); err != nil {
			if !errors.Is(err, ErrNoTable) {
				t.Fatalf("ReadTable failed without ErrNoTable: %v", err)
			}
		} else {
			if re := AppendTable(nil, table); !bytes.Equal(re, data[table.LogSize():]) {
				t.Fatalf("accepted tail does not re-encode identically:\n in  %x\n out %x", data[table.LogSize():], re)
			}
			ix = table
			if own, err := ScanTable(bytes.NewReader(data)); err == nil && !bytes.Equal(AppendTable(nil, own), AppendTable(nil, ix)) {
				truthful = false
			}
			all := make([]int, len(ix.Blocks))
			for i := range all {
				all[i] = i
			}
			var checked []Record
			if err := scan(bytes.NewReader(data), ix, all, MatchAll(), collectInto(&checked)); err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("the checked scan of an accepted table failed without ErrCorrupt: %v", err)
				}
				ix = nil
			} else if !decoded || !bytes.Equal(encode(checked), encode(plain)) {
				t.Fatalf("the table passed the checked scan of %d records, the plain scan read %d (decoded to the end: %v)", len(checked), len(plain), decoded)
			}
		}
		if decoded {
			if !truthful {
				ix = nil
			}
			fuzzWindows(t, data, ix, plain)
		}
	})
}

// collectInto appends every record a walk hands over to *dst.
func collectInto(dst *[]Record) func(Block) error {
	return func(b Block) error {
		*dst = append(*dst, b.Records...)
		return nil
	}
}

// encode is recs as AppendRecord writes them, so that NaN times compare.
func encode(recs []Record) []byte {
	var out []byte
	for i := range recs {
		out, _ = AppendRecord(out, &recs[i])
	}
	return out
}

// fuzzWindows walks data, which the plain scan read to its end as plain,
// over queries derived from it: through ix's selection when ix is a table
// that passed the checked scan, and by the degraded scan.
func fuzzWindows(t *testing.T, data []byte, ix *Table, plain []Record) {
	seed := crc32.ChecksumIEEE(data)
	bound := func(k uint32) float64 {
		switch k % 4 {
		case 0:
			return math.Inf(-1)
		case 1:
			return math.Inf(1)
		}
		if len(plain) == 0 {
			return 0
		}
		t := plain[int(k/4)%len(plain)].Time
		if k%4 == 3 && !math.IsNaN(t) && !math.IsInf(t, 0) {
			t += 1e-9 * (1 + math.Abs(t))
		}
		return t
	}
	for w := uint32(0); w < 6; w++ {
		q := MatchAll()
		q.T0, q.T1 = bound(seed>>(w*5)+w), bound(seed>>(w*3)+7*w+1)
		if w%2 == 1 && len(plain) > 0 {
			q.Rank = plain[int(seed>>w)%len(plain)].Rank
		}
		if err := CheckWindow(q.T0, q.T1); err != nil {
			if !math.IsNaN(q.T0) && !math.IsNaN(q.T1) && q.T0 <= q.T1 && !math.IsInf(q.T0, 1) && !math.IsInf(q.T1, -1) {
				t.Fatalf("window [%v,%v] refused: %v", q.T0, q.T1, err)
			}
			continue
		}
		var want []Record
		for i := range plain {
			if selects(q, &plain[i]) {
				want = append(want, plain[i])
			}
		}
		answer := func(how string, handed []Record) {
			if !bytes.Equal(encode(handed), encode(want)) {
				t.Fatalf("%+v, %s: handed over %d record(s), the plain scan selects %d", q, how, len(handed), len(want))
			}
		}
		if ix != nil {
			var handed []Record
			if err := scan(bytes.NewReader(data), ix, ix.Select(q), q, collectInto(&handed)); err != nil {
				t.Fatalf("%+v: a table the checked scan passed failed the windowed one: %v", q, err)
			}
			answer("the table's selection", handed)
		}
		var handed []Record
		br, err := NewBlockReader(bytes.NewReader(data))
		if err == nil {
			err = br.EachIn(q, collectInto(&handed))
		}
		if err != nil {
			t.Fatalf("%+v: the degraded scan failed where the plain one did not: %v", q, err)
		}
		answer("the degraded scan", handed)
	}
}
