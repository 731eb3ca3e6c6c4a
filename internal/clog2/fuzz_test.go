package clog2

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// validFileBytes serialises a small, well-formed two-block log, as far as
// its end-log marker: the block table a Writer puts behind it is cut off
// (table_test.go tests that).
func validFileBytes(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBlock(0, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBlock(1, []Record{{Type: RecBareEvt, Time: 1, Rank: 1, ID: 4}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()[:w.Table().LogSize()]
}

// blockHeaderSize is a block header's length: the block-start marker, the
// rank and the record count. firstRecord is the offset of a file's first
// record.
const (
	blockHeaderSize = 1 + 4 + 4
	firstRecord     = HeaderSize + blockHeaderSize
)

// corruptRecordCount returns a valid file with the first block's declared
// record count overwritten by n (little-endian), leaving the payload intact.
func corruptRecordCount(t testing.TB, n int32) []byte {
	t.Helper()
	data := append([]byte(nil), validFileBytes(t)...)
	binary.LittleEndian.PutUint32(data[firstRecord-4:], uint32(n))
	return data
}

// readBlocks reads the log r holds through Each: the header's rank count,
// a copy of each block Each handed over and its error (nil at the end-log
// marker), or the header's error and nothing else.
func readBlocks(r io.Reader) (numRanks int, blocks []Block, err error) {
	br, err := NewBlockReader(r)
	if err != nil {
		return 0, nil, err
	}
	err = br.Each(func(b Block) error {
		blocks = append(blocks, Block{Rank: b.Rank, Records: slices.Clone(b.Records)})
		return nil
	})
	return br.NumRanks(), blocks, err
}

// FuzzReadFile feeds arbitrary bytes to every reader entry point. The
// contract under fuzzing: return errors, never panic, never over-allocate
// from untrusted length fields, never hand over a block that breaks the
// rule of a block (Block) — and every way of reading the stream must agree
// on what a file contains: Each, NextReuse into a buffer of any capacity
// (room), and, for a file it accepts, the per-rank walk at 1 and 2
// workers.
func FuzzReadFile(f *testing.F) {
	valid := validFileBytes(f)
	f.Add(valid, uint8(0))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte(Magic), uint8(2))                                                // header cut before rank count
	f.Add(valid[:firstRecord-1], uint8(3))                                        // truncated inside a block header
	f.Add(valid[:len(valid)-1], uint8(4))                                         // missing end-log marker
	f.Add(valid[:len(valid)/2], uint8(5))                                         // torn mid-block
	f.Add(corruptRecordCount(f, -5), uint8(6))                                    // negative record count
	f.Add(corruptRecordCount(f, 1<<28), uint8(7))                                 // huge record count
	f.Add(corruptRecordCount(f, MaxBlockRecords+1), uint8(7))                     // one past the bound
	f.Add(bytes.Replace(valid, []byte(Magic), []byte("XLOG-R0260"), 1), uint8(8)) // bad magic
	f.Add(bytes.Replace(valid, []byte(Magic), []byte("CLOG-R0260"), 1), uint8(8)) // an earlier version
	bad := append([]byte(nil), valid...)
	bad[firstRecord] = 0xEE // clobber first record's type byte
	f.Add(bad, uint8(9))
	retired := append([]byte(nil), valid...)
	retired[firstRecord] = 9 // the retired source-location type
	f.Add(retired, uint8(9))
	f.Add(rawFile(1, rawCargoEvt(1, bytes.Repeat([]byte{'c'}, MaxCargo+1))), uint8(10)) // cargo the decoder cuts
	f.Add(append(append([]byte(nil), valid...), 0), uint8(11))                          // a byte after the end-log marker
	table, err := ScanTable(bytes.NewReader(valid))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(AppendTable(append([]byte(nil), valid...), table), uint8(12)) // as a Writer closes it

	f.Add(bytes.Replace(valid, []byte{byte(RecBeginBlock), 1, 0, 0, 0}, []byte{byte(RecBeginBlock), 2, 0, 0, 0}, 1), uint8(13)) // a block rank past the header's

	f.Fuzz(func(t *testing.T, data []byte, room uint8) {
		whole := drain(NewBlockReader(bytes.NewReader(data)))
		var numRanks int32 // a reader that has read no header hands over nothing
		if len(data) >= HeaderSize {
			numRanks = le32(data[len(Magic):])
		}
		last := map[int32]float64{} // each rank's last stamp in the blocks handed over
		for i, b := range whole.blocks {
			if err := breaksRule(b, numRanks, last); err != nil {
				t.Fatalf("block %d handed over: %v", i, err)
			}
		}
		// The slice decoder agrees with the field-by-field decoder it
		// replaced on blocks, bounds and error class, up to the first block
		// that breaks the rule, which the oracle does not know: the reader
		// refuses that block, whole (the oracle hands it over) or from the
		// record that breaks the rule on (the oracle fails further into it).
		oracle := drain(newOracleReader(bytes.NewReader(data)))
		n := len(whole.blocks)
		switch {
		case !isRuleError(whole.err):
			compareDrained(t, "fuzz input", whole, oracle, false)
		case n < len(oracle.blocks):
			compareDrained(t, "fuzz input", whole, drained{oracle.blocks[:n], oracle.bounds[:n], whole.err}, false)
			if breaksRule(oracle.blocks[n], numRanks, last) == nil {
				t.Fatalf("block %d refused (%v), the oracle's keeps the rule", n, whole.err)
			}
		case n > len(oracle.blocks) || oracle.err == nil:
			t.Fatalf("%d blocks and %v, the oracle's %d and %v", n, whole.err, len(oracle.blocks), oracle.err)
		default:
			compareDrained(t, "fuzz input", whole, drained{oracle.blocks, oracle.bounds, whole.err}, false)
		}
		// Each hands over the blocks NextReuse returns before its first
		// error, and reports a clean end exactly when NextReuse reaches
		// io.EOF, with NextReuse's error otherwise; so does NextReuse into a
		// buffer of any capacity.
		_, blocks, err := readBlocks(bytes.NewReader(data))
		if fmt.Sprint(err) != fmt.Sprint(whole.err) {
			t.Fatalf("Each ends in %v, NextReuse in %v", err, whole.err)
		}
		if len(blocks) != len(whole.blocks) {
			t.Fatalf("Each handed over %d blocks, NextReuse returned %d", len(blocks), len(whole.blocks))
		}
		for i := range blocks {
			if !sameBlock(blocks[i], whole.blocks[i]) {
				t.Fatalf("block %d differs between Each and NextReuse", i)
			}
		}
		if br, oerr := NewBlockReader(bytes.NewReader(data)); oerr == nil {
			into := drainWith(t, br, int(room))
			if fmt.Sprint(into.err) != fmt.Sprint(whole.err) {
				t.Fatalf("capacity %d: NextReuse ends in %v, into nil in %v", room, into.err, whole.err)
			}
			compareDrained(t, fmt.Sprintf("capacity %d", room), into, whole, false)
		}
		// Rank by rank: a log the reader accepts is walked to the same
		// definitions and the same records of each rank at 1 and 2
		// workers, which is what its profile and its verdict rest on.
		if whole.err == nil {
			one, _, _, err1 := walkRanks(tabled(data), MatchAll(), 1)
			two, _, _, err2 := walkRanks(tabled(data), MatchAll(), 2)
			if fmt.Sprint(err1) != fmt.Sprint(err2) || !reflect.DeepEqual(one, two) {
				t.Fatalf("the walk at 1 worker (%v) and at 2 (%v) differ", err1, err2)
			}
		}
		// ScanTable, over the same rule, tables exactly those blocks.
		tab, terr := ScanTable(bytes.NewReader(data))
		if fmt.Sprint(terr) != fmt.Sprint(err) {
			t.Fatalf("ScanTable ends in %v, Each in %v", terr, err)
		}
		if tab != nil && len(tab.Blocks) != len(blocks) {
			t.Fatalf("ScanTable has %d entries for %d complete blocks", len(tab.Blocks), len(blocks))
		}
		for i := range blocks {
			if m := tab.Blocks[i]; [2]int64{m.Offset, m.Offset + m.Length} != whole.bounds[i] || int(m.Records) != len(blocks[i].Records) {
				t.Fatalf("ScanTable's entry %d %+v is not the block at %v of %d records", i, m, whole.bounds[i], len(blocks[i].Records))
			}
		}
		// Whatever decodes re-encodes to the bytes it was decoded from,
		// block by block, unless the decoder had to repair it (a cargo cut
		// to MaxCargo encodes shorter); and
		// records checkTimed takes whole needed no repair: it is what lets
		// the merge write a rank's pages as they lie.
		for i, b := range whole.blocks {
			raw := data[whole.bounds[i][0]:whole.bounds[i][1]]
			enc, eerr := AppendBlock(nil, b.Rank, b.Records)
			body := raw[blockHeaderSize : len(raw)-1]
			n, size, cerr := checkTimed(body, b.Rank, int(numRanks), len(body), &BlockMeta{Rank: b.Rank}, stamp(noStamp))
			checked := cerr == nil && size == len(body) && n == len(b.Records)
			if exact := eerr == nil && len(enc) == len(raw); exact != bytes.Equal(enc, raw) || checked && !exact {
				t.Fatalf("block %d (checked %v): %d bytes re-encode to %d, %v", i, checked, len(raw), len(enc), eerr)
			}
		}
		if n, size, err := checkTimed(data, 0, MaxRanks, len(data), &BlockMeta{}, stamp(noStamp)); size > len(data) || err == nil && size != len(data) {
			t.Fatalf("checkTimed over the input: %d records in %d of %d bytes, %v", n, size, len(data), err)
		}
	})
}

// breaksRule is the rule of a block (Block) over a block decoded from a
// log of numRanks ranks, restated record by record, after the blocks whose
// ranks' last stamps last holds (so the log has had a timed record when
// last is not empty); it enters the block's. A record is a
// definition (a state, event or constant definition) or timed (a bare,
// cargo or message event, or a time shift); any other type, the retired
// source location (9) among them, is no record a block holds.
func breaksRule(b Block, numRanks int32, last map[int32]float64) error {
	if b.Rank < 0 || b.Rank >= numRanks {
		return fmt.Errorf("rank %d of %d", b.Rank, numRanks)
	}
	for i, r := range b.Records {
		isDef := r.Type == RecStateDef || r.Type == RecEventDef || r.Type == RecConstDef
		if !isDef && (r.Type < RecBareEvt || r.Type > RecTimeShift) {
			return fmt.Errorf("record %d of type %d", i, r.Type)
		}
		if r.Rank != b.Rank || isDef && b.Rank != 0 || r.Type == RecMsgEvt && (r.Aux1 < 0 || r.Aux1 >= numRanks) {
			return fmt.Errorf("record %d (%v of rank %d, peer %d) in a block of rank %d", i, r.Type, r.Rank, r.Aux1, b.Rank)
		}
		if isDef {
			if len(last) > 0 { // definitions lead the log
				return fmt.Errorf("record %d (%v) after the log's first timed record", i, r.Type)
			}
			continue
		}
		if prev, ok := last[b.Rank]; math.IsNaN(r.Time) || math.IsInf(r.Time, 0) || ok && r.Time < prev {
			return fmt.Errorf("record %d (%v of rank %d) stamped %v after %v", i, r.Type, r.Rank, r.Time, prev)
		}
		last[b.Rank] = r.Time
	}
	return nil
}

// isRuleError tells the reader's refusals under the rule of a block from
// its other errors, by the words checkRank, recordError, stampError and
// defError use.
func isRuleError(err error) bool {
	if err == nil {
		return false
	}
	msg := err.Error()
	return strings.Contains(msg, " in a log of ") || strings.Contains(msg, " in a block of rank ") || strings.Contains(msg, " names peer rank ") ||
		strings.Contains(msg, " stamped ") || strings.Contains(msg, " after the log's first timed record")
}

// The seed corpus cases, run as a plain test so `go test` covers them
// without -fuzz.
func TestReaderRejectsCorruptInputs(t *testing.T) {
	cases := map[string][]byte{
		"empty":             {},
		"magic only":        []byte(Magic),
		"bad magic":         bytes.Replace(validFileBytes(t), []byte(Magic), []byte("XLOG-R0260"), 1),
		"torn block header": validFileBytes(t)[:firstRecord-1],
		"earlier version":   bytes.Replace(validFileBytes(t), []byte(Magic), []byte("CLOG-R0260"), 1),
		"no end-log":        validFileBytes(t)[:len(validFileBytes(t))-1],
		"torn mid-block":    validFileBytes(t)[:len(validFileBytes(t))/2],
		"negative count":    corruptRecordCount(t, -1),
		"huge count":        corruptRecordCount(t, 1<<28),
		"count past max":    corruptRecordCount(t, MaxBlockRecords+1),
	}
	bad := validFileBytes(t)
	bad[firstRecord] = 0xEE
	cases["bad record type"] = bad
	for name, data := range cases {
		if _, _, err := readBlocks(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: Each succeeded", name)
		}
		if d := drain(NewBlockReader(bytes.NewReader(data))); d.err == nil {
			t.Errorf("%s: NextReuse succeeded", name)
		}
	}
}

// A log of an earlier version is refused with both versions named.
func TestReaderNamesAnEarlierVersion(t *testing.T) {
	data := bytes.Replace(validFileBytes(t), []byte(Magic), []byte("CLOG-R0260"), 1)
	_, err := NewBlockReader(bytes.NewReader(data))
	if want := "clog2: a CLOG-R0260 log; this version reads " + Magic + " only"; err == nil || err.Error() != want {
		t.Fatalf("NewBlockReader gives %v, want %s", err, want)
	}
}

// A header declaring 2^28 records must not reserve gigabytes before the
// decoder has seen a single valid record: it is refused, as is any count
// past MaxBlockRecords, before a record is decoded.
func TestReaderNoOverAllocationOnHugeCount(t *testing.T) {
	data := corruptRecordCount(t, 1<<28)
	allocs := testing.AllocsPerRun(5, func() {
		readBlocks(bytes.NewReader(data)) //nolint:errcheck — must fail, cheaply
	})
	// The exact number is incidental; the point is it is small: record
	// structs are ~112 bytes, so a faithful 2^28 prealloc would be one
	// ~30 GB allocation that either OOMs or dwarfs this bound.
	if allocs > 100 {
		t.Fatalf("rejecting a huge record count cost %.0f allocations", allocs)
	}
}

// BlockReader.NextReuse recycles the caller's record buffer.
func TestBlockReaderNextReuse(t *testing.T) {
	data := validFileBytes(t)
	br, err := NewBlockReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Record, 0, 64)
	b1, err := br.NextReuse(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b1.Records, sampleRecords()) {
		t.Fatalf("first block changed: %+v", b1.Records)
	}
	if &b1.Records[0] != &buf[:1][0] {
		t.Fatal("NextReuse did not reuse the provided buffer")
	}
	b2, err := br.NextReuse(buf)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Rank != 1 || len(b2.Records) != 1 {
		t.Fatalf("second block: %+v", b2)
	}
	if _, err := br.NextReuse(buf); err != io.EOF {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
	if _, err := br.NextReuse(buf); err != io.EOF {
		t.Fatalf("want io.EOF on repeat call, got %v", err)
	}
}

// Steady state — timed records, a buffer already grown to the block size —
// NextReuse allocates nothing: records are decoded in place in the
// caller's slice out of the reader's one byte buffer.
func TestNextReuseSteadyStateAllocatesNothing(t *testing.T) {
	const blocks, perBlock = 400, 1500 // 9 MB: the buffer refills ~150 times
	recs := make([]Record, perBlock)
	for i := range recs {
		switch i % 3 {
		case 0:
			recs[i] = Record{Type: RecBareEvt, Time: float64(i), ID: 2}
		case 1:
			recs[i] = Record{Type: RecCargoEvt, Time: float64(i), ID: 3}
			recs[i].SetCargo("line: 17 proc: P3")
		default:
			recs[i] = Record{Type: RecMsgEvt, Time: float64(i), Dir: DirSend, Aux1: 1, Aux2: 9, Aux3: 800}
		}
	}
	var file bytes.Buffer
	w, err := NewWriter(&file, 4)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < blocks; b++ {
		for i := range recs {
			recs[i].Rank, recs[i].Time = int32(b%4), float64(b*perBlock+i) // a rank's blocks in time order
		}
		if err := w.WriteBlock(int32(b%4), recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	br, err := NewBlockReader(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Record, 0, perBlock)
	allocs := testing.AllocsPerRun(blocks-50, func() {
		b, err := br.NextReuse(buf)
		if err != nil || len(b.Records) != perBlock {
			t.Fatalf("%d records, err %v", len(b.Records), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state NextReuse allocates %.2f times a block", allocs)
	}
}
