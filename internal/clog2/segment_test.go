package clog2

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"
)

// segRecords builds a small record batch shaped like real spill traffic.
func segRecords(rank int32, n int, base float64) []Record {
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		r := Record{Type: RecCargoEvt, Time: base + float64(i), Rank: rank, ID: 2}
		r.SetCargo("line: x.go:42")
		if i%3 == 2 {
			r = Record{Type: RecMsgEvt, Time: base + float64(i), Rank: rank,
				Dir: DirSend, Aux1: 1, Aux2: 7, Aux3: 64}
		}
		recs = append(recs, r)
	}
	return recs
}

// buildSegmentFile frames nseg batches for rank into one spill image and
// returns the file bytes plus each segment's payload for comparison.
func buildSegmentFile(t testing.TB, rank int32, nseg int) ([]byte, [][]byte) {
	t.Helper()
	var file []byte
	var payloads [][]byte
	for s := 0; s < nseg; s++ {
		p, err := AppendBlock(nil, rank, segRecords(rank, 3, float64(s)*10))
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
		file = AppendSegment(file, rank, uint64(s), p)
	}
	return file, payloads
}

func TestSegmentRoundTrip(t *testing.T) {
	file, payloads := buildSegmentFile(t, 3, 5)
	segs, stats := ScanSegments(file)
	if !stats.Clean() || stats.TailTorn {
		t.Fatalf("clean file scanned dirty: %+v", stats)
	}
	if len(segs) != 5 {
		t.Fatalf("recovered %d segments, want 5", len(segs))
	}
	for i, s := range segs {
		if s.Rank != 3 || s.Seq != uint64(i) {
			t.Fatalf("segment %d: rank=%d seq=%d", i, s.Rank, s.Seq)
		}
		if !bytes.Equal(s.Payload, payloads[i]) {
			t.Fatalf("segment %d payload differs", i)
		}
		b, err := DecodeBlockPayload(s.Payload, 3)
		if err != nil {
			t.Fatalf("segment %d payload undecodable: %v", i, err)
		}
		if b.Rank != 3 || len(b.Records) != 3 {
			t.Fatalf("segment %d decoded block: rank=%d n=%d", i, b.Rank, len(b.Records))
		}
		if !reflect.DeepEqual(b.Records, segRecords(3, 3, float64(i)*10)) {
			t.Fatalf("segment %d records differ", i)
		}
	}
}

// FinalizeSegmentHeader (the spill hot path's copy-free framing) must
// produce the byte-identical frame AppendSegment does.
func TestFinalizeSegmentHeaderMatchesAppend(t *testing.T) {
	payload, err := AppendBlock(nil, 5, segRecords(5, 3, 2.0))
	if err != nil {
		t.Fatal(err)
	}
	want := AppendSegment(nil, 5, 77, payload)
	got := make([]byte, SegHeaderSize+len(payload))
	copy(got[SegHeaderSize:], payload)
	FinalizeSegmentHeader(got, 5, 77)
	if !bytes.Equal(got, want) {
		t.Fatalf("frames differ:\n got %x\nwant %x", got, want)
	}
}

// The acceptance property at the scanner level: flipping any single byte
// of a v2 spill loses at most the one segment holding that byte — every
// other segment, including the whole tail of the file, still scans.
func TestSegmentSingleByteFlipSweep(t *testing.T) {
	const nseg = 6
	file, _ := buildSegmentFile(t, 1, nseg)
	pristine, _ := ScanSegments(file)
	if len(pristine) != nseg {
		t.Fatalf("pristine scan found %d segments", len(pristine))
	}
	// Map each byte offset to the segment that owns it.
	owner := make([]int, len(file))
	for i := range owner {
		owner[i] = -1
	}
	for idx, s := range pristine {
		end := int(s.Offset) + SegHeaderSize + len(s.Payload)
		for i := int(s.Offset); i < end; i++ {
			owner[i] = idx
		}
	}
	for off := 0; off < len(file); off++ {
		mut := append([]byte(nil), file...)
		mut[off] ^= 0xA5
		segs, stats := ScanSegments(mut)
		got := map[uint64]bool{}
		for _, s := range segs {
			got[s.Seq] = true
		}
		lost := 0
		for seq := 0; seq < nseg; seq++ {
			if !got[uint64(seq)] {
				lost++
				if seq != owner[off] {
					t.Fatalf("flip at %d (segment %d) lost segment %d", off, owner[off], seq)
				}
			}
		}
		if lost > 1 {
			t.Fatalf("flip at %d lost %d segments", off, lost)
		}
		// A flip always breaks its segment's CRC (header or payload), so
		// exactly one segment is lost and its bytes are quarantined —
		// unless the flip forged another valid frame, which the CRC makes
		// effectively impossible.
		if lost != 1 {
			t.Fatalf("flip at %d lost %d segments, want exactly 1", off, lost)
		}
		if stats.BytesQuarantined == 0 {
			t.Fatalf("flip at %d quarantined nothing", off)
		}
		// The recovered segments must be byte-identical to the pristine
		// ones.
		for _, s := range segs {
			if !bytes.Equal(s.Payload, pristine[s.Seq].Payload) {
				t.Fatalf("flip at %d altered surviving segment %d", off, s.Seq)
			}
		}
	}
}

// Truncation at any offset — the SIGKILL torn-tail case — keeps every
// segment that fits and reports the ragged remainder as a torn tail.
func TestSegmentTruncationSweep(t *testing.T) {
	const nseg = 4
	file, _ := buildSegmentFile(t, 0, nseg)
	pristine, _ := ScanSegments(file)
	for cut := 0; cut <= len(file); cut++ {
		segs, stats := ScanSegments(file[:cut])
		want := 0
		for _, s := range pristine {
			if int(s.Offset)+SegHeaderSize+len(s.Payload) <= cut {
				want++
			}
		}
		if len(segs) != want {
			t.Fatalf("cut at %d: recovered %d segments, want %d", cut, len(segs), want)
		}
		partial := cut > 0 && want < nseg && int(pristine[want].Offset) < cut
		if partial && !stats.TailTorn {
			t.Fatalf("cut at %d inside segment %d not reported as torn tail", cut, want)
		}
		if !partial && stats.TailTorn {
			t.Fatalf("cut at %d on a segment boundary reported torn", cut)
		}
	}
}

// Garbage between segments — and garbage that itself contains marker
// bytes — is skipped, with the segments on both sides recovered.
func TestSegmentResyncAcrossGarbage(t *testing.T) {
	payload, err := AppendBlock(nil, 2, segRecords(2, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	garbage := append([]byte("torn write debris"), segMarker[:]...)
	garbage = append(garbage, 0xF8, 0xF8, 0x00)

	var file []byte
	file = AppendSegment(file, 2, 0, payload)
	file = append(file, garbage...)
	file = AppendSegment(file, 2, 1, payload)
	file = append(file, garbage...)

	segs, stats := ScanSegments(file)
	if len(segs) != 2 {
		t.Fatalf("recovered %d segments, want 2", len(segs))
	}
	if segs[0].Seq != 0 || segs[1].Seq != 1 {
		t.Fatalf("bad seqs: %d %d", segs[0].Seq, segs[1].Seq)
	}
	if stats.BytesQuarantined != int64(2*len(garbage)) {
		t.Fatalf("quarantined %d bytes, want %d", stats.BytesQuarantined, 2*len(garbage))
	}
	if stats.DamagedRegions != 2 {
		t.Fatalf("damaged regions = %d, want 2", stats.DamagedRegions)
	}
	if !stats.TailTorn {
		t.Fatal("trailing garbage not reported as torn tail")
	}
}

func TestScanSegmentsDegenerate(t *testing.T) {
	if segs, stats := ScanSegments(nil); len(segs) != 0 || !stats.Clean() {
		t.Fatalf("empty scan: %d segs, %+v", len(segs), stats)
	}
	junk := bytes.Repeat([]byte{0xF8, 'S', 'G'}, 100)
	segs, stats := ScanSegments(junk)
	if len(segs) != 0 {
		t.Fatalf("marker-dense junk yielded %d segments", len(segs))
	}
	if stats.BytesQuarantined != int64(len(junk)) || !stats.TailTorn {
		t.Fatalf("junk accounting: %+v", stats)
	}
	// A header claiming a payload longer than the file must not validate.
	p := []byte("payload")
	seg := AppendSegment(nil, 0, 0, p)
	if segs, _ := ScanSegments(seg[:len(seg)-1]); len(segs) != 0 {
		t.Fatal("truncated payload still validated")
	}
	// An unknown version must not validate even with a correct CRC layout.
	bad := AppendSegment(nil, 0, 0, p)
	bad[4] = SegVersion + 1
	if segs, _ := ScanSegments(bad); len(segs) != 0 {
		t.Fatal("future-version segment validated as the current one")
	}
}

// What salvage detects a spill fragment by: the scan finds a segment.
// A raw CLOG-2 stream (the first spill format, long unwritten), garbage
// and nothing at all hold none, and what is there is quarantined whole.
func TestScanSegmentsRecognizesOnlySegments(t *testing.T) {
	var raw bytes.Buffer
	w, err := NewWriter(&raw, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBlock(0, segRecords(0, 2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	framed, _ := buildSegmentFile(t, 0, 2)
	if segs, stats := ScanSegments(framed); len(segs) != 2 || !stats.Clean() {
		t.Fatalf("segment stream scanned as %d segment(s), %+v", len(segs), stats)
	}
	for name, data := range map[string][]byte{"raw stream": raw.Bytes(), "garbage": []byte("not a spill at all"), "empty": nil} {
		segs, stats := ScanSegments(data)
		want := ScanStats{BytesScanned: int64(len(data))}
		if len(data) > 0 {
			want.BytesQuarantined, want.DamagedRegions, want.TailTorn = int64(len(data)), 1, true
		}
		if len(segs) != 0 || stats != want {
			t.Errorf("%s scanned as %d segment(s), %+v; want none, %+v", name, len(segs), stats, want)
		}
	}
}

func TestDecodeBlockPayloadRejects(t *testing.T) {
	good, err := AppendBlock(nil, 1, segRecords(1, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBlockPayload(good, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBlockPayload(good[:len(good)-2], 1); err == nil {
		t.Fatal("truncated payload decoded")
	}
	if _, err := DecodeBlockPayload(append(append([]byte(nil), good...), 0x00), 1); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := DecodeBlockPayload(nil, 1); err == nil {
		t.Fatal("empty payload decoded")
	}
	// The rule of a block, by name: the rank the caller expects, a block
	// rank inside [0, MaxRanks), every record of the block's rank, every
	// peer inside [0, MaxRanks). The bytes are built by hand, as no
	// Writer writes them.
	msg := Record{Type: RecMsgEvt, Time: 1, Rank: 1, Dir: DirSend, Aux1: 0, Aux2: 7, Aux3: 8}
	block := func(rank int32, recs ...Record) []byte {
		p := AppendBlockHeader(nil, rank, len(recs))
		for i := range recs {
			p, _ = AppendRecord(p, &recs[i])
		}
		return append(p, byte(RecEndBlock))
	}
	otherRank, badPeer, negPeer := msg, msg, msg
	otherRank.Rank = 2
	badPeer.Aux1 = MaxRanks
	negPeer.Aux1 = -1
	for _, c := range []struct {
		payload []byte
		rank    int32
		want    string
	}{
		{good, 2, "clog2: a block payload of rank 1, not 2"},
		{block(-1, msg), -1, "clog2: a block of rank -1 in a log of 1048576 ranks"},
		{block(MaxRanks, msg), MaxRanks, "clog2: a block of rank 1048576 in a log of 1048576 ranks"},
		{block(1, msg, otherRank), 1, "clog2: a MsgEvt record of rank 2 in a block of rank 1"},
		{block(1, badPeer), 1, "clog2: a message half of rank 1 names peer rank 1048576, outside [0,1048576)"},
		{block(1, negPeer), 1, "clog2: a message half of rank 1 names peer rank -1, outside [0,1048576)"},
	} {
		if _, err := DecodeBlockPayload(c.payload, c.rank); err == nil || err.Error() != c.want {
			t.Errorf("DecodeBlockPayload: %v, want %q", err, c.want)
		}
	}
}

// A payload is decoded straight out of the caller's bytes: no reader, no
// buffer, only the record slice it returns.
func TestDecodeBlockPayloadAllocatesOnlyRecords(t *testing.T) {
	payload, err := AppendBlock(nil, 3, []Record{{Type: RecBareEvt, Time: 1, Rank: 3, ID: 4}})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		b, err := DecodeBlockPayload(payload, 3)
		if err != nil || b.Rank != 3 || len(b.Records) != 1 {
			t.Fatalf("%+v, err %v", b, err)
		}
	})
	if allocs != 1 {
		t.Fatalf("decoding a one-record payload allocates %.0f times, want 1 (the record slice)", allocs)
	}
}

// SegMarker returns the 4-byte segment marker (tests and tools).
func SegMarker() []byte { return append([]byte(nil), segMarker[:]...) }

// AppendSegment appends one framed segment carrying payload for rank with
// sequence number seq, and returns the extended slice.
func AppendSegment(dst []byte, rank int32, seq uint64, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, segMarker[:]...)
	dst = append(dst, SegVersion)
	var num [8]byte
	binary.LittleEndian.PutUint32(num[:4], uint32(rank))
	dst = append(dst, num[:4]...)
	binary.LittleEndian.PutUint64(num[:8], seq)
	dst = append(dst, num[:8]...)
	binary.LittleEndian.PutUint32(num[:4], uint32(len(payload)))
	dst = append(dst, num[:4]...)
	crc := crc32.Update(0, castagnoli, dst[start:start+21])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(num[:4], crc)
	dst = append(dst, num[:4]...)
	return append(dst, payload...)
}

// Clean reports a scan with nothing quarantined.
func (s ScanStats) Clean() bool { return s.BytesQuarantined == 0 }
