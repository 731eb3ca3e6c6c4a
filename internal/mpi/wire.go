// Wire framing for the multi-process socket transport.
//
// This file is the *inner* frame codec: the type byte and its
// little-endian fields. The link layer around it — the length prefix,
// CRC, link sequence/ack numbers, retransmission and heartbeats — lives
// in wirelink.go. On the wire each frame travels as:
//
//	u32  length (little-endian; everything after this field)
//	u32  crc32c over seq|ack|body
//	u64  link seq (0 for unsequenced control frames)
//	u64  cumulative ack (highest contiguous seq received)
//	u8   frame type
//	...  type-specific fields, little-endian, then the raw payload
//
// Frame types:
//
//	HELLO    rank u32, world u32,           — joining rank's handshake;
//	         epoch u32, ack u64               epoch > 0 resumes a broken
//	                                          link, ack tells the hub what
//	                                          to retransmit
//	MSG      dst u32, ctx u8, src u32,      — one envelope; the hub routes
//	         tag i64, flags u8, seq u64,      on dst, the payload is the
//	         payload                          message body
//	ACK      dst u32, seq u64               — rendezvous release for the
//	                                          sender's seq
//	BARRIER  rank u32                       — rank entered the barrier
//	RELEASE  (empty)                        — hub: barrier is complete
//	ABORT    code i64                       — world teardown fan-out
//	BYE      rank u32, traffic 4×i64        — clean goodbye; carries the
//	                                          rank's user-traffic counters
//	                                          so the orchestrator's totals
//	                                          stay complete
//	PING     (empty)                        — heartbeat probe
//	PONG     (empty)                        — heartbeat reply / ack carrier
//	WELCOME  epoch u32, ack u64             — hub's handshake reply
//
// Integers that are rank numbers fit u32 by construction; tags and abort
// codes travel as i64 so the wire never narrows an application value.
package mpi

import (
	"encoding/binary"
	"fmt"
)

// Frame types.
const (
	frHello byte = iota + 1
	frMsg
	frAck
	frBarrier
	frRelease
	frAbort
	frBye
	frPing
	frPong
	frWelcome
)

// sequencedType reports whether frames of this type carry a link seq:
// they are exactly the frames whose loss would change program-visible
// behaviour, so they are windowed, deduped and retransmitted. Control
// frames (handshakes, heartbeats, aborts) are regenerated instead.
func sequencedType(typ byte) bool {
	switch typ {
	case frMsg, frAck, frBarrier, frRelease, frBye:
		return true
	}
	return false
}

// MSG flags.
const flagNeedAck byte = 1 << 0

// frame is the decoded form of one wire frame; only the fields of its
// type are meaningful.
type frame struct {
	typ     byte
	rank    int    // hello, barrier, bye: the sending rank
	world   int    // hello: expected world size
	epoch   int    // hello, welcome: link resume epoch (0 = first connect)
	ack     uint64 // hello, welcome: sender's cumulative link ack
	dst     int    // msg, ack: routing destination
	ctx     int    // msg
	src     int    // msg: originating rank
	tag     int    // msg
	flags   byte
	seq     uint64 // msg, ack: rendezvous sequence number
	code    int    // abort
	traffic Traffic
	payload []byte
}

// wireSizeHint bounds the encoded size of fr: one type byte, at most 37
// bytes of fixed fields (BYE), and the payload. Used to pre-size encode
// buffers so a frame encodes with a single allocation.
func wireSizeHint(fr *frame) int {
	return 40 + len(fr.payload)
}

func encodeFrame(fr *frame) []byte {
	return appendFrame(make([]byte, 0, wireSizeHint(fr)), fr)
}

// appendFrame appends the encoded form of fr to b and returns the
// extended slice — the allocation-free core of encodeFrame, used by the
// link layer to encode directly into the outer wire buffer.
func appendFrame(b []byte, fr *frame) []byte {
	u32 := func(v int) { b = binary.LittleEndian.AppendUint32(b, uint32(v)) }
	i64 := func(v int64) { b = binary.LittleEndian.AppendUint64(b, uint64(v)) }
	b = append(b, fr.typ)
	switch fr.typ {
	case frHello:
		u32(fr.rank)
		u32(fr.world)
		u32(fr.epoch)
		b = binary.LittleEndian.AppendUint64(b, fr.ack)
	case frWelcome:
		u32(fr.epoch)
		b = binary.LittleEndian.AppendUint64(b, fr.ack)
	case frPing, frPong:
	case frMsg:
		u32(fr.dst)
		b = append(b, byte(fr.ctx))
		u32(fr.src)
		i64(int64(fr.tag))
		b = append(b, fr.flags)
		b = binary.LittleEndian.AppendUint64(b, fr.seq)
		b = append(b, fr.payload...)
	case frAck:
		u32(fr.dst)
		b = binary.LittleEndian.AppendUint64(b, fr.seq)
	case frBarrier:
		u32(fr.rank)
	case frRelease:
	case frAbort:
		i64(int64(fr.code))
	case frBye:
		u32(fr.rank)
		i64(fr.traffic.Sent)
		i64(fr.traffic.SentBytes)
		i64(fr.traffic.Received)
		i64(fr.traffic.RecvBytes)
	}
	return b
}

func decodeFrame(b []byte) (*frame, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("mpi: empty wire frame")
	}
	fr := &frame{typ: b[0]}
	b = b[1:]
	// Built lazily: allocating the error eagerly would cost a fmt call on
	// every healthy frame of the hot path.
	short := func() error { return fmt.Errorf("mpi: truncated wire frame type %d", fr.typ) }
	u32 := func(dst *int) bool {
		if len(b) < 4 {
			return false
		}
		*dst = int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		return true
	}
	i64 := func(dst *int64) bool {
		if len(b) < 8 {
			return false
		}
		*dst = int64(binary.LittleEndian.Uint64(b))
		b = b[8:]
		return true
	}
	u64 := func(dst *uint64) bool {
		if len(b) < 8 {
			return false
		}
		*dst = binary.LittleEndian.Uint64(b)
		b = b[8:]
		return true
	}
	switch fr.typ {
	case frHello:
		if !u32(&fr.rank) || !u32(&fr.world) || !u32(&fr.epoch) || !u64(&fr.ack) {
			return nil, short()
		}
	case frWelcome:
		if !u32(&fr.epoch) || !u64(&fr.ack) {
			return nil, short()
		}
	case frPing, frPong:
	case frMsg:
		if !u32(&fr.dst) || len(b) < 1 {
			return nil, short()
		}
		fr.ctx = int(b[0])
		b = b[1:]
		var tag int64
		if !u32(&fr.src) || !i64(&tag) {
			return nil, short()
		}
		fr.tag = int(tag)
		if len(b) < 9 {
			return nil, short()
		}
		fr.flags = b[0]
		fr.seq = binary.LittleEndian.Uint64(b[1:9])
		fr.payload = b[9:]
	case frAck:
		if !u32(&fr.dst) {
			return nil, short()
		}
		if len(b) < 8 {
			return nil, short()
		}
		fr.seq = binary.LittleEndian.Uint64(b)
	case frBarrier:
		if !u32(&fr.rank) {
			return nil, short()
		}
	case frRelease:
	case frAbort:
		var code int64
		if !i64(&code) {
			return nil, short()
		}
		fr.code = int(code)
	case frBye:
		if !u32(&fr.rank) ||
			!i64(&fr.traffic.Sent) || !i64(&fr.traffic.SentBytes) ||
			!i64(&fr.traffic.Received) || !i64(&fr.traffic.RecvBytes) {
			return nil, short()
		}
	default:
		return nil, fmt.Errorf("mpi: unknown wire frame type %d", fr.typ)
	}
	return fr, nil
}
