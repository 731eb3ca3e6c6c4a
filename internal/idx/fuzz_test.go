package idx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/clog2"
)

// fuzzSeedLog writes a small real log, table and footer included, to seed
// the corpus with a structurally valid tail (mutations of which probe
// every validation branch, not just the signature check).
func fuzzSeedLog(f *testing.F) []byte {
	f.Helper()
	var buf bytes.Buffer
	w, err := clog2.NewWriter(&buf, 2)
	if err != nil {
		f.Fatal(err)
	}
	for rank := int32(0); rank < 2; rank++ {
		recs := []clog2.Record{
			{Type: clog2.RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Name: "A", Color: "red"},
			{Type: clog2.RecBareEvt, Rank: rank, Time: float64(rank) + 0.5, ID: 2},
			{Type: clog2.RecMsgEvt, Rank: rank, Time: float64(rank) + 0.7,
				Dir: clog2.DirSend, Aux1: 1 - rank, Aux2: 5, Aux3: 64},
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

// FuzzReadIndex asserts the table and footer decoder never panics or
// over-allocates on hostile bytes; that anything it accepts re-encodes to
// the bytes it was read from (the format has exactly one encoding per
// table); and that every table it accepts either passes scan's
// checked reading of all its blocks, reading then what the plain scan
// reads, or is caught by it as corrupt.
func FuzzReadIndex(f *testing.F) {
	valid := fuzzSeedLog(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(clog2.Magic))
	// A few targeted mutants so the fuzzer starts at the deep branches.
	flip := append([]byte(nil), valid...)
	flip[len(flip)-clog2.FooterSize-40] ^= 0x40
	f.Add(flip)
	short := append([]byte(nil), valid[:len(valid)-9]...)
	f.Add(short)
	noFooter := append([]byte(nil), valid[:len(valid)-clog2.FooterSize]...)
	f.Add(noFooter)
	bigCounts := append([]byte(nil), valid...)
	at := binary.LittleEndian.Uint64(bigCounts[len(bigCounts)-clog2.FooterSize:])
	binary.LittleEndian.PutUint32(bigCounts[at+8:], math.MaxUint32)
	f.Add(restamp(bigCounts))

	f.Fuzz(func(t *testing.T, data []byte) {
		table, err := clog2.ReadTable(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			if !errors.Is(err, clog2.ErrNoTable) {
				t.Fatalf("ReadTable failed without ErrNoTable: %v", err)
			}
			return
		}
		if re := clog2.AppendTable(nil, table); !bytes.Equal(re, data[table.LogSize():]) {
			t.Fatalf("accepted tail does not re-encode identically:\n in  %x\n out %x", data[table.LogSize():], re)
		}
		ix := (*Index)(table)
		all := make([]int, len(ix.Blocks))
		for i := range all {
			all[i] = i
		}
		// The records each scan reads, encoded: NaN times compare too.
		var checked, plain []byte
		collect := func(dst *[]byte) func(clog2.Block) error {
			return func(b clog2.Block) error {
				for i := range b.Records {
					*dst, _ = clog2.AppendRecord(*dst, &b.Records[i])
				}
				return nil
			}
		}
		if err := scan(bytes.NewReader(data), ix, all, collect(&checked)); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("the checked scan of an accepted table failed without ErrCorrupt: %v", err)
			}
			return
		}
		br, err := clog2.NewBlockReader(bytes.NewReader(data))
		if err == nil {
			err = br.Each(collect(&plain))
		}
		if err != nil || !bytes.Equal(checked, plain) {
			t.Fatalf("the table passed the checked scan of %d bytes of records, the plain scan read %d (%v)", len(checked), len(plain), err)
		}
	})
}
