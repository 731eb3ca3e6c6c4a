package clog2

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleRecords() []Record {
	recs := []Record{
		{Type: RecStateDef, Time: 0, Rank: 0, ID: 1, Aux1: 2, Aux2: 3, Color: "red", Name: "PI_Read"},
		{Type: RecEventDef, Time: 0, Rank: 0, ID: 100, Color: "yellow", Name: "MsgArrival"},
		{Type: RecConstDef, Time: 0, Rank: 0, ID: 7, Aux1: 42, Name: "answer"},
		{Type: RecBareEvt, Time: 1.5, Rank: 0, ID: 2},
		{Type: RecCargoEvt, Time: 2.25, Rank: 0, ID: 3},
		{Type: RecMsgEvt, Time: 2.5, Rank: 0, Dir: DirSend, Aux1: 1, Aux2: 9, Aux3: 800},
		{Type: RecMsgEvt, Time: 2.75, Rank: 0, Dir: DirRecv, Aux1: 1, Aux2: 9, Aux3: 800},
		{Type: RecTimeShift, Time: 3, Rank: 0, Shift: -0.001},
		{Type: RecSrcLoc, Time: 3.5, Rank: 0, Aux1: 99, Text: "lab2.go"},
	}
	recs[4].SetCargo("line: 17 proc: P3")
	return recs
}

func TestRoundtripSingleBlock(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	if err := w.WriteBlock(0, recs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRanks != 3 {
		t.Fatalf("NumRanks = %d, want 3", f.NumRanks)
	}
	if len(f.Blocks) != 1 || f.Blocks[0].Rank != 0 {
		t.Fatalf("blocks: %+v", f.Blocks)
	}
	if !reflect.DeepEqual(f.Blocks[0].Records, recs) {
		t.Fatalf("records changed:\n got %+v\nwant %+v", f.Blocks[0].Records, recs)
	}
}

func TestRoundtripMultipleBlocksIncludingRankZero(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	for rank := int32(0); rank < 4; rank++ {
		recs := []Record{{Type: RecBareEvt, Time: float64(rank), Rank: rank, ID: rank * 10}}
		if err := w.WriteBlock(rank, recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 4 {
		t.Fatalf("got %d blocks, want 4", len(f.Blocks))
	}
	for i, b := range f.Blocks {
		if b.Rank != int32(i) {
			t.Errorf("block %d rank = %d", i, b.Rank)
		}
	}
}

func TestEmptyBlocksAndEmptyFile(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 1)
	if err := w.WriteBlock(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 1 || len(f.Blocks[0].Records) != 0 {
		t.Fatalf("blocks: %+v", f.Blocks)
	}

	buf.Reset()
	w, _ = NewWriter(&buf, 2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err = Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 0 {
		t.Fatalf("empty file has %d blocks", len(f.Blocks))
	}
}

func TestCargoTruncatedToMPELimit(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 1)
	var rec Record
	rec.Type, rec.ID = RecCargoEvt, 1
	rec.SetCargo(strings.Repeat("x", 100))
	w.WriteBlock(0, []Record{rec})
	w.Close()
	f, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := f.Blocks[0].Records[0].CargoText()
	if len(got) != MaxCargo {
		t.Fatalf("cargo length %d, want %d", len(got), MaxCargo)
	}
}

// Truncation at the cargo limit must not split a multi-byte UTF-8 rune:
// a rune straddling byte 40 is dropped whole.
func TestCargoTruncationRuneSafe(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{strings.Repeat("x", 39) + "é", strings.Repeat("x", 39)},        // 2-byte rune at 39..40
		{strings.Repeat("x", 38) + "世界", strings.Repeat("x", 38)},       // 3-byte rune at 38..40
		{strings.Repeat("x", 37) + "🙂ab", strings.Repeat("x", 37) + ""}, // 4-byte rune at 37..40
		{strings.Repeat("x", 36) + "🙂ab", strings.Repeat("x", 36) + "🙂"},
		{strings.Repeat("x", 40) + "é", strings.Repeat("x", 40)}, // boundary on a rune edge
		{strings.Repeat("é", 20), strings.Repeat("é", 20)},       // exactly 40 bytes
	}
	for _, c := range cases {
		if got := Trunc(c.in, MaxCargo); got != c.want {
			t.Errorf("Trunc(%q) = %q, want %q", c.in, got, c.want)
		}
		if got := string(TruncBytes([]byte(c.in), MaxCargo)); got != c.want {
			t.Errorf("TruncBytes(%q) = %q, want %q", c.in, got, c.want)
		}
		var rec Record
		rec.SetCargo(c.in)
		if rec.CargoText() != c.want {
			t.Errorf("SetCargo(%q) kept %q, want %q", c.in, rec.CargoText(), c.want)
		}
	}
	// Garbage with no rune start near the boundary falls back to a byte cut.
	junk := strings.Repeat("x", 36) + "\x80\x80\x80\x80\x80\x80"
	if got := Trunc(junk, MaxCargo); len(got) != MaxCargo {
		t.Errorf("Trunc(junk) kept %d bytes, want %d", len(got), MaxCargo)
	}
}

// Records handed to WriteBlock already encoded, in pages, make the bytes
// and the table entry they make handed over as records, however they are
// split between the two and across pages; a page holding anything but
// whole timed records is refused.
func TestWriteBlockPagesMatchWriteBlock(t *testing.T) {
	recs := sampleRecords()[:8] // the definitions, then every timed type
	write := func(recs []Record, pages ...[]byte) ([]byte, *Table) {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf, 2)
		if err := w.WriteBlock(1, recs, pages...); err != nil {
			t.Fatal(err)
		}
		w.Close()
		return buf.Bytes(), w.Table()
	}
	flat, flatTable := write(recs)
	for split := 3; split <= len(recs); split++ {
		for cut := split; cut <= len(recs); cut++ {
			var pages [2][]byte
			for i, r := range recs[split:] {
				pages[min(1, (split+i)/cut)], _ = AppendRecord(pages[min(1, (split+i)/cut)], &r)
			}
			got, table := write(recs[:split], pages[0], nil, pages[1])
			if !bytes.Equal(got, flat) || !reflect.DeepEqual(table, flatTable) {
				t.Fatalf("split at %d, pages cut at %d: the bytes or the table differ from WriteBlock's", split, cut)
			}
		}
	}
	def, _ := AppendRecord(nil, &recs[0])
	timed, _ := AppendRecord(nil, &recs[4])
	for _, page := range [][]byte{def, timed[:len(timed)-1]} {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf, 2)
		if err := w.WriteBlock(1, nil, page); err == nil {
			t.Errorf("a page of % x was taken", page)
		}
	}
}

func TestWriterValidation(t *testing.T) {
	if _, err := NewWriter(&bytes.Buffer{}, 0); err == nil {
		t.Error("NewWriter(0 ranks) succeeded")
	}
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 1)
	if err := w.WriteBlock(-1, nil); err == nil {
		t.Error("WriteBlock(-1) succeeded")
	}
	w.Close()
	if err := w.WriteBlock(0, nil); err == nil {
		t.Error("WriteBlock after Close succeeded")
	}
	if err := w.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTCLOG-22\x01\x00\x00\x00"),
	}
	for _, c := range cases {
		if _, err := Read(bytes.NewReader(c)); err == nil {
			t.Errorf("Read(%q) succeeded", c)
		}
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 2)
	w.WriteBlock(1, sampleRecords())
	w.Close()
	full := buf.Bytes()[:w.Table().LogSize()]
	// Every proper prefix (beyond the header) of the log, up to its end-log
	// marker, must fail, not crash or silently succeed.
	for cut := len(Magic) + 4; cut < len(full)-1; cut += 7 {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes read successfully", cut)
		}
	}
}

func TestRecTypeString(t *testing.T) {
	if RecMsgEvt.String() != "MsgEvt" || RecEndLog.String() != "EndLog" {
		t.Error("RecType names wrong")
	}
	if RecType(200).String() != "RecType(?)" {
		t.Error("unknown RecType name wrong")
	}
}

func TestFileAccessors(t *testing.T) {
	f := &File{Blocks: []Block{
		{Rank: 0, Records: sampleRecords()},
		{Rank: 1, Records: []Record{{Type: RecStateDef, ID: 5, Name: "PI_Write"}}},
	}}
	if got := len(f.Records()); got != len(sampleRecords())+1 {
		t.Errorf("Records() len = %d", got)
	}
	if got := len(f.StateDefs()); got != 2 {
		t.Errorf("StateDefs() len = %d", got)
	}
	if got := len(f.EventDefs()); got != 1 {
		t.Errorf("EventDefs() len = %d", got)
	}
}

// Property: random well-formed records roundtrip byte-exactly.
func TestRoundtripProperty(t *testing.T) {
	genRecord := func(rng *rand.Rand) Record {
		types := []RecType{RecStateDef, RecEventDef, RecConstDef, RecBareEvt,
			RecCargoEvt, RecMsgEvt, RecTimeShift, RecSrcLoc}
		r := Record{
			Type: types[rng.Intn(len(types))],
			Time: rng.Float64() * 100,
			Rank: int32(rng.Intn(16)),
		}
		str := func(n int) string {
			b := make([]byte, rng.Intn(n))
			for i := range b {
				b[i] = byte('a' + rng.Intn(26))
			}
			return string(b)
		}
		switch r.Type {
		case RecStateDef:
			r.ID, r.Aux1, r.Aux2 = int32(rng.Intn(1000)), int32(rng.Intn(1000)), int32(rng.Intn(1000))
			r.Color, r.Name = str(12), str(20)
		case RecEventDef:
			r.ID = int32(rng.Intn(1000))
			r.Color, r.Name = str(12), str(20)
		case RecConstDef:
			r.ID, r.Aux1 = int32(rng.Intn(1000)), rng.Int31()
			r.Name = str(20)
		case RecBareEvt:
			r.ID = int32(rng.Intn(1000))
		case RecCargoEvt:
			r.ID = int32(rng.Intn(1000))
			r.SetCargo(str(MaxCargo))
		case RecMsgEvt:
			r.Dir = []uint8{DirSend, DirRecv}[rng.Intn(2)]
			r.Aux1, r.Aux2, r.Aux3 = int32(rng.Intn(16)), int32(rng.Intn(100)), rng.Int31()
		case RecTimeShift:
			r.Shift = rng.NormFloat64()
		case RecSrcLoc:
			r.Aux1 = int32(rng.Intn(10000))
			r.Text = str(30)
		}
		return r
	}
	f := func(seed int64, nBlocksRaw, nRecsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nBlocks := int(nBlocksRaw%5) + 1
		var buf bytes.Buffer
		w, err := NewWriter(&buf, nBlocks)
		if err != nil {
			return false
		}
		want := make([]Block, nBlocks)
		for b := 0; b < nBlocks; b++ {
			n := int(nRecsRaw % 20)
			recs := make([]Record, n)
			for i := range recs {
				recs[i] = genRecord(rng)
			}
			want[b] = Block{Rank: int32(b), Records: recs}
			if err := w.WriteBlock(int32(b), recs); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got.Blocks) != nBlocks {
			return false
		}
		for b := range want {
			if got.Blocks[b].Rank != want[b].Rank {
				return false
			}
			if len(want[b].Records) == 0 {
				if len(got.Blocks[b].Records) != 0 {
					return false
				}
				continue
			}
			if !reflect.DeepEqual(got.Blocks[b].Records, want[b].Records) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
