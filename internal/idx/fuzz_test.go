package idx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
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
// table); that every table it accepts either passes scan's checked
// reading of all its blocks, reading then what the plain scan reads, or
// is caught by it as corrupt; and, for every log the plain scan reads to
// its end, that windows derived from the input (infinite bounds, record
// times, NaN ones among them) are refused by CheckWindow or answered, by
// the table's selection and by the degraded scan alike, with exactly the
// records the plain scan keeps under Matches.
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
		// The records the plain scan reads, when it reads to the end-log
		// marker.
		var plain []clog2.Record
		br, err := clog2.NewBlockReader(bytes.NewReader(data))
		if err == nil {
			err = br.Each(func(b clog2.Block) error {
				plain = append(plain, b.Records...)
				return nil
			})
		}
		decoded := err == nil

		var ix *Index
		if table, err := clog2.ReadTable(bytes.NewReader(data), int64(len(data))); err != nil {
			if !errors.Is(err, clog2.ErrNoTable) {
				t.Fatalf("ReadTable failed without ErrNoTable: %v", err)
			}
		} else {
			if re := clog2.AppendTable(nil, table); !bytes.Equal(re, data[table.LogSize():]) {
				t.Fatalf("accepted tail does not re-encode identically:\n in  %x\n out %x", data[table.LogSize():], re)
			}
			ix = (*Index)(table)
			all := make([]int, len(ix.Blocks))
			for i := range all {
				all[i] = i
			}
			var checked []clog2.Record
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
			fuzzWindows(t, data, ix, plain)
		}
	})
}

// collectInto appends every record a walk hands over to *dst.
func collectInto(dst *[]clog2.Record) func(clog2.Block) error {
	return func(b clog2.Block) error {
		*dst = append(*dst, b.Records...)
		return nil
	}
}

// encode is recs as AppendRecord writes them, so that NaN times compare.
func encode(recs []clog2.Record) []byte {
	var out []byte
	for i := range recs {
		out, _ = clog2.AppendRecord(out, &recs[i])
	}
	return out
}

// fuzzWindows walks data, which the plain scan read to its end as plain,
// over windows derived from it: through ix's selection when ix is a table
// that passed the checked scan, and by the degraded scan.
func fuzzWindows(t *testing.T, data []byte, ix *Index, plain []clog2.Record) {
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
		q.IncludeDefs = true
		q.T0, q.T1 = bound(seed>>(w*5)+w), bound(seed>>(w*3)+7*w+1)
		if err := CheckWindow(q.T0, q.T1); err != nil {
			if !math.IsNaN(q.T0) && !math.IsNaN(q.T1) && q.T0 <= q.T1 && !math.IsInf(q.T0, 1) && !math.IsInf(q.T1, -1) {
				t.Fatalf("window [%v,%v] refused: %v", q.T0, q.T1, err)
			}
			continue
		}
		var want []clog2.Record
		for i := range plain {
			if q.Matches(&plain[i]) {
				want = append(want, plain[i])
			}
		}
		answer := func(how string, handed []clog2.Record) {
			var got []clog2.Record
			for i := range handed {
				r := &handed[i]
				switch r.Type {
				case clog2.RecBareEvt, clog2.RecCargoEvt, clog2.RecMsgEvt:
					if r.Time < q.T0 || r.Time > q.T1 {
						t.Fatalf("window [%v,%v], %s: handed over %v at %v", q.T0, q.T1, how, r.Type, r.Time)
					}
				}
				if q.Matches(r) {
					got = append(got, *r)
				}
			}
			if !bytes.Equal(encode(got), encode(want)) {
				t.Fatalf("window [%v,%v], %s: kept %d record(s), the plain scan %d", q.T0, q.T1, how, len(got), len(want))
			}
		}
		if ix != nil {
			var handed []clog2.Record
			if err := scan(bytes.NewReader(data), ix, ix.Select(q), q, collectInto(&handed)); err != nil {
				t.Fatalf("window [%v,%v]: a table the checked scan passed failed the windowed one: %v", q.T0, q.T1, err)
			}
			answer("the table's selection", handed)
		}
		var handed []clog2.Record
		br, err := clog2.NewBlockReader(bytes.NewReader(data))
		if err == nil {
			err = br.EachIn(q.T0, q.T1, collectInto(&handed))
		}
		if err != nil {
			t.Fatalf("window [%v,%v]: the degraded scan failed where the plain one did not: %v", q.T0, q.T1, err)
		}
		answer("the degraded scan", handed)
	}
}
