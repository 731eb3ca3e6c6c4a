package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/fmtspec"
)

// ReduceOp selects the combining operation for PI_Reduce, mirroring
// Pilot's PI_SUM, PI_PROD, PI_MIN, PI_MAX.
type ReduceOp uint8

// Reduce operations.
const (
	OpSum ReduceOp = iota
	OpProd
	OpMin
	OpMax
)

// String implements fmt.Stringer.
func (o ReduceOp) String() string {
	switch o {
	case OpSum:
		return "PI_SUM"
	case OpProd:
		return "PI_PROD"
	case OpMin:
		return "PI_MIN"
	case OpMax:
		return "PI_MAX"
	}
	return fmt.Sprintf("ReduceOp(%d)", uint8(o))
}

// Reduce is PI_Reduce: the endpoint collects one contribution per channel
// and combines them elementwise with op, decoding the combined result into
// args (pointer arguments, as for Read). Workers send their contributions
// with ordinary Writes using a matching format. Contributions combine in
// channel order; %s is not reducible.
//
//go:noinline
func (b *Bundle) Reduce(op ReduceOp, format string, args ...any) error {
	fn, loc := "PI_Reduce", callerLoc(1)
	r := b.r
	if err := r.requirePhase(fn, loc, phaseRunning); err != nil {
		return err
	}
	if err := b.requireUsage(fn, loc, UsageReduce); err != nil {
		return err
	}
	specs, err := r.parseFormat(fn, loc, format)
	if err != nil {
		return err
	}
	for _, s := range specs {
		if s.Kind == fmtspec.KindString {
			return errorf(fn, loc, "%%s cannot be reduced")
		}
	}
	end := b.startCollective(fn, loc)
	defer end()

	// Per spec: one message per channel, combined as they arrive. The
	// per-channel FIFO order guarantees spec k from channel i precedes
	// spec k+1 from channel i.
	argI := 0
	for si, spec := range specs {
		var combined []byte
		for ci, c := range b.chans {
			r.arrowSpread() // per-arrow spread, receive side included
			payload, err := c.recvPayload(fn, loc, spec, " part: ", ci+1, len(b.chans))
			if err != nil {
				return err
			}
			if combined == nil {
				combined = append([]byte(nil), payload...)
				continue
			}
			combined, err = combinePayloads(spec, op, combined, payload)
			if err != nil {
				return errorf(fn, loc, "combining %s from %s: %v", spec, c.Name(), err)
			}
		}
		consumed, err := fmtspec.Decode(spec, combined, args[argI:])
		if err != nil {
			return errorf(fn, loc, "spec %d: %v", si+1, err)
		}
		argI += consumed
	}
	if argI != len(args) {
		return errorf(fn, loc, "format %q consumed %d arguments, %d supplied", format, argI, len(args))
	}
	return nil
}

// combinePayloads applies op elementwise over two wire payloads of the
// same spec. Caret payloads carry a 4-byte length header that must agree.
func combinePayloads(spec fmtspec.Spec, op ReduceOp, a, b []byte) ([]byte, error) {
	var header []byte
	if spec.Mode == fmtspec.Caret {
		if len(a) < 4 || len(b) < 4 {
			return nil, fmt.Errorf("caret payload missing header")
		}
		if na, nb := binary.LittleEndian.Uint32(a), binary.LittleEndian.Uint32(b); na != nb {
			return nil, fmt.Errorf("contributions have %d and %d elements", na, nb)
		}
		header, a, b = a[:4], a[4:], b[4:]
	}
	if len(a) != len(b) {
		return nil, fmt.Errorf("contribution sizes differ: %d vs %d bytes", len(a), len(b))
	}
	es := spec.Kind.ElemSize()
	if es == 0 || len(a)%es != 0 {
		return nil, fmt.Errorf("payload of %d bytes not a multiple of element size %d", len(a), es)
	}
	out := make([]byte, 0, len(header)+len(a))
	out = append(out, header...)
	tmp := make([]byte, es)
	for i := 0; i < len(a); i += es {
		if err := combineElem(spec.Kind, op, a[i:i+es], b[i:i+es], tmp); err != nil {
			return nil, err
		}
		out = append(out, tmp...)
	}
	return out, nil
}

func combineElem(kind fmtspec.Kind, op ReduceOp, a, b, dst []byte) error {
	switch kind {
	case fmtspec.KindChar:
		dst[0] = byte(intOp(op, int64(a[0]), int64(b[0])))
	case fmtspec.KindInt16:
		v := intOp(op, int64(int16(binary.LittleEndian.Uint16(a))), int64(int16(binary.LittleEndian.Uint16(b))))
		binary.LittleEndian.PutUint16(dst, uint16(v))
	case fmtspec.KindUint16:
		v := uintOp(op, uint64(binary.LittleEndian.Uint16(a)), uint64(binary.LittleEndian.Uint16(b)))
		binary.LittleEndian.PutUint16(dst, uint16(v))
	case fmtspec.KindInt, fmtspec.KindInt64:
		v := intOp(op, int64(binary.LittleEndian.Uint64(a)), int64(binary.LittleEndian.Uint64(b)))
		binary.LittleEndian.PutUint64(dst, uint64(v))
	case fmtspec.KindUint, fmtspec.KindUint64:
		v := uintOp(op, binary.LittleEndian.Uint64(a), binary.LittleEndian.Uint64(b))
		binary.LittleEndian.PutUint64(dst, v)
	case fmtspec.KindFloat32:
		v := floatOp(op,
			float64(math.Float32frombits(binary.LittleEndian.Uint32(a))),
			float64(math.Float32frombits(binary.LittleEndian.Uint32(b))))
		binary.LittleEndian.PutUint32(dst, math.Float32bits(float32(v)))
	case fmtspec.KindFloat64:
		v := floatOp(op,
			math.Float64frombits(binary.LittleEndian.Uint64(a)),
			math.Float64frombits(binary.LittleEndian.Uint64(b)))
		binary.LittleEndian.PutUint64(dst, math.Float64bits(v))
	default:
		return fmt.Errorf("kind %v is not reducible", kind)
	}
	return nil
}

func intOp(op ReduceOp, a, b int64) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpProd:
		return a * b
	case OpMin:
		if b < a {
			return b
		}
		return a
	default:
		if b > a {
			return b
		}
		return a
	}
}

func uintOp(op ReduceOp, a, b uint64) uint64 {
	switch op {
	case OpSum:
		return a + b
	case OpProd:
		return a * b
	case OpMin:
		if b < a {
			return b
		}
		return a
	default:
		if b > a {
			return b
		}
		return a
	}
}

func floatOp(op ReduceOp, a, b float64) float64 {
	switch op {
	case OpSum:
		return a + b
	case OpProd:
		return a * b
	case OpMin:
		return math.Min(a, b)
	default:
		return math.Max(a, b)
	}
}
