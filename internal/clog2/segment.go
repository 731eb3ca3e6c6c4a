package clog2

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Spill segment framing: the one spill format.
//
// A raw CLOG-2 stream written through per record is abort-proof against
// clean truncation, but a single torn write or flipped byte mid-file
// desynchronizes the decoder and silently discards everything after it —
// exactly the records needed when debugging a dirty death. So every spill
// write is wrapped in a self-synchronizing segment:
//
//	offset size  field
//	0      4     marker  0xF8 'S' 'G' '2'
//	4      1     version (SegVersion)
//	5      4     rank    (int32 LE)
//	9      8     seq     (uint64 LE, per-rank, starts at 0)
//	17     4     payload length (uint32 LE)
//	21     4     CRC-32C over bytes [0,21) + payload
//	25     ...   payload (one bare CLOG-2 block encoding)
//
// The CRC covers header and payload, so any single corrupted byte
// invalidates exactly the segment holding it; the scanner resynchronizes
// on the next marker whose header and CRC validate, so damage never
// cascades past the segment boundary. Per-rank sequence numbers make
// interior losses detectable as gaps.

// SegVersion is the current spill segment format version. Version 3
// frames the blocks of CLOG-R0261 (a block-start marker, the rank as it is,
// at most MaxBlockRecords records); version 2 framed those of CLOG-R0260.
const SegVersion = 3

// SegHeaderSize is the byte size of a segment header (marker through CRC).
const SegHeaderSize = 25

// MaxSegPayload bounds a segment's declared payload length; anything
// larger is treated as corruption (the spill writer frames one batch per
// segment, far below this).
const MaxSegPayload = 1 << 24

// segMarker begins every segment. The lead byte can never start a UTF-8
// rune, making accidental collisions in text-ish payloads unlikely; real
// collisions are rejected by the CRC anyway.
var segMarker = [4]byte{0xF8, 'S', 'G', '2'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FinalizeSegmentHeader fills in the segment header at the front of
// frame, whose layout must be SegHeaderSize placeholder bytes followed by
// the payload: the spill hot path encodes the payload directly behind a
// reserved header and patches the header afterwards, so each spill write
// moves the record bytes exactly once before the write syscall.
func FinalizeSegmentHeader(frame []byte, rank int32, seq uint64) {
	_ = frame[SegHeaderSize-1]
	copy(frame, segMarker[:])
	frame[4] = SegVersion
	binary.LittleEndian.PutUint32(frame[5:9], uint32(rank))
	binary.LittleEndian.PutUint64(frame[9:17], seq)
	binary.LittleEndian.PutUint32(frame[17:21], uint32(len(frame)-SegHeaderSize))
	crc := crc32.Update(0, castagnoli, frame[:21])
	crc = crc32.Update(crc, castagnoli, frame[SegHeaderSize:])
	binary.LittleEndian.PutUint32(frame[21:25], crc)
}

// Segment is one validated frame recovered by ScanSegments.
type Segment struct {
	// Offset is the segment's byte offset in the scanned data.
	Offset int64
	Rank   int32
	Seq    uint64
	// Payload aliases the scanned buffer; it is valid as long as the
	// buffer is.
	Payload []byte
}

// ScanStats is the damage accounting for one scan.
type ScanStats struct {
	// BytesScanned is the total input length.
	BytesScanned int64
	// BytesQuarantined counts bytes that belong to no valid segment —
	// corrupted segments, torn partial writes, and any garbage between
	// markers.
	BytesQuarantined int64
	// DamagedRegions counts contiguous quarantined byte runs.
	DamagedRegions int
	// TailTorn reports that the data ended inside a quarantined region —
	// the signature of a write cut short by SIGKILL or a full disk.
	TailTorn bool
}

// ScanSegments walks data for valid segments. It is the resync half of
// the corruption-tolerance contract: after any checksum, version or
// length failure it advances to the next candidate marker instead of
// aborting, so one damaged byte quarantines at most the segment holding
// it and never the tail of the file. Returned payloads alias data.
func ScanSegments(data []byte) ([]Segment, ScanStats) {
	var segs []Segment
	stats := ScanStats{BytesScanned: int64(len(data))}
	i := 0
	regionStart := -1 // start of the current quarantined run, -1 when none
	quarantine := func(upto int) {
		if regionStart < 0 {
			return
		}
		stats.BytesQuarantined += int64(upto - regionStart)
		stats.DamagedRegions++
		regionStart = -1
	}
	for i < len(data) {
		// Jump to the next possible marker position.
		j := bytes.Index(data[i:], segMarker[:])
		if j < 0 {
			if regionStart < 0 {
				regionStart = i
			}
			break
		}
		if j > 0 && regionStart < 0 {
			regionStart = i
		}
		i += j
		if seg, ok := validSegmentAt(data, i); ok {
			quarantine(i)
			segs = append(segs, seg)
			i += SegHeaderSize + len(seg.Payload)
			continue
		}
		// A marker without a validating frame behind it: quarantine this
		// byte and keep scanning from the next one.
		if regionStart < 0 {
			regionStart = i
		}
		i++
	}
	if regionStart >= 0 {
		stats.BytesQuarantined += int64(len(data) - regionStart)
		stats.DamagedRegions++
		stats.TailTorn = true
	}
	return segs, stats
}

// validSegmentAt validates the frame starting at data[i] (which is known
// to start with the marker).
func validSegmentAt(data []byte, i int) (Segment, bool) {
	if len(data)-i < SegHeaderSize {
		return Segment{}, false
	}
	h := data[i : i+SegHeaderSize]
	if h[4] != SegVersion {
		return Segment{}, false
	}
	plen := int(binary.LittleEndian.Uint32(h[17:21]))
	if plen > MaxSegPayload || len(data)-i-SegHeaderSize < plen {
		return Segment{}, false
	}
	want := binary.LittleEndian.Uint32(h[21:25])
	crc := crc32.Update(0, castagnoli, h[:21])
	crc = crc32.Update(crc, castagnoli, data[i+SegHeaderSize:i+SegHeaderSize+plen])
	if crc != want {
		return Segment{}, false
	}
	return Segment{
		Offset:  int64(i),
		Rank:    int32(binary.LittleEndian.Uint32(h[5:9])),
		Seq:     binary.LittleEndian.Uint64(h[9:17]),
		Payload: data[i+SegHeaderSize : i+SegHeaderSize+plen],
	}, true
}

// DecodeBlockPayload parses one bare block encoding of rank's, as produced
// by AppendBlock, decoding straight out of data; a block of another rank,
// or one that breaks the rule of a block (Block), is refused. Trailing
// bytes after the end-block marker are an error: a segment payload is
// exactly one block.
func DecodeBlockPayload(data []byte, rank int32) (Block, error) {
	d := decoder{buf: data, w: len(data)}
	got, n, err := d.blockHeader(MaxRanks)
	if err != nil {
		return Block{}, err
	}
	if got != rank {
		return Block{}, fmt.Errorf("clog2: a block payload of rank %d, not %d", got, rank)
	}
	last, timed := noStamp, false
	recs, _, err := d.readBlock(nil, rank, n, MaxRanks, math.Inf(-1), math.Inf(1), true, &last, &timed)
	if err != nil {
		return Block{}, err
	}
	if d.r != d.w {
		return Block{}, fmt.Errorf("clog2: %d trailing bytes after block payload", d.w-d.r)
	}
	return Block{Rank: rank, Records: recs}, nil
}
