// Package fmtspec parses and applies Pilot's fscanf/fprintf-style format
// strings, the signature feature of the Pilot API ("made easy to learn by
// borrowing C's well-known fprintf and fscanf format syntax").
//
// A format is a whitespace-separated list of conversion specs. Each spec
// transfers one value or array and — exactly as in Pilot — travels as its
// own wire message, so the format "%d %100f" produces two messages (and,
// in the visual log, two arrival bubbles inside the PI_Read rectangle).
//
// Supported kinds: %c (byte), %hd (int16), %d (int), %ld (int64),
// %hu (uint16), %u (uint), %lu (uint64), %f (float32), %lf (float64),
// %s (string). Array forms for every kind except %s:
//
//	%25d  fixed-length array of 25
//	%*d   array whose length is passed as a preceding argument at run time
//	%^d   variable-length array: the writer's length travels on the wire and
//	      the reader's slice is allocated to fit (Pilot V2.1)
package fmtspec

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
)

// Kind identifies the element type of a conversion spec.
type Kind uint8

// Element kinds, in wire-format order. The zero Kind is invalid so that a
// zero Spec is detectably empty.
const (
	KindInvalid Kind = iota
	KindChar         // %c  — Go byte
	KindInt16        // %hd — Go int16
	KindInt          // %d  — Go int (8 bytes on the wire)
	KindInt64        // %ld — Go int64
	KindUint16       // %hu — Go uint16
	KindUint         // %u  — Go uint (8 bytes on the wire)
	KindUint64       // %lu — Go uint64
	KindFloat32      // %f  — Go float32
	KindFloat64      // %lf — Go float64
	KindString       // %s  — Go string, scalar only
)

// Mode identifies the array form of a conversion spec.
type Mode uint8

// Array modes.
const (
	Scalar Mode = iota // one value
	Fixed              // %Nk: array of exactly N elements
	Star               // %*k: array length passed as a run-time argument
	Caret              // %^k: array length carried on the wire (auto-alloc on read)
)

// Spec is one parsed conversion.
type Spec struct {
	Kind Kind
	Mode Mode
	// N is the element count for Fixed mode and 0 otherwise.
	N int
}

// kinds describes each Kind, indexed by it: its conversion letters and the
// Go type of one element.
var kinds = [...]struct {
	letters string
	elem    reflect.Type
}{
	KindInvalid: {"?", nil},
	KindChar:    {"c", reflect.TypeOf(byte(0))},
	KindInt16:   {"hd", reflect.TypeOf(int16(0))},
	KindInt:     {"d", reflect.TypeOf(int(0))},
	KindInt64:   {"ld", reflect.TypeOf(int64(0))},
	KindUint16:  {"hu", reflect.TypeOf(uint16(0))},
	KindUint:    {"u", reflect.TypeOf(uint(0))},
	KindUint64:  {"lu", reflect.TypeOf(uint64(0))},
	KindFloat32: {"f", reflect.TypeOf(float32(0))},
	KindFloat64: {"lf", reflect.TypeOf(float64(0))},
	KindString:  {"s", reflect.TypeOf("")},
}

// letter returns the conversion letters for k.
func (k Kind) letter() string {
	if int(k) < len(kinds) {
		return kinds[k].letters
	}
	return "?"
}

// ElemSize returns the wire size in bytes of one element, or 0 for strings
// (variable).
func (k Kind) ElemSize() int {
	switch k {
	case KindChar:
		return 1
	case KindInt16, KindUint16:
		return 2
	case KindFloat32:
		return 4
	case KindInt, KindInt64, KindUint, KindUint64, KindFloat64:
		return 8
	default:
		return 0
	}
}

// AppendText appends the spec in format syntax, e.g. "%*d" or "%25f", to
// dst: String without the allocation, for a wire message's header and the
// level-2 comparison against it.
func (s Spec) AppendText(dst []byte) []byte {
	dst = append(dst, '%')
	switch s.Mode {
	case Scalar:
	case Fixed:
		dst = strconv.AppendInt(dst, int64(s.N), 10)
	case Star:
		dst = append(dst, '*')
	case Caret:
		dst = append(dst, '^')
	default:
		return append(dst, '?')
	}
	return append(dst, s.Kind.letter()...)
}

// String renders the spec back in format syntax, e.g. "%*d" or "%25f".
func (s Spec) String() string {
	var buf [24]byte
	return string(s.AppendText(buf[:0]))
}

// Parse splits format into conversion specs. It rejects malformed formats
// with an error naming the offending token, in the spirit of Pilot's
// extensive error checking.
func Parse(format string) ([]Spec, error) {
	fields := strings.Fields(format)
	if len(fields) == 0 {
		return nil, fmt.Errorf("fmtspec: empty format %q", format)
	}
	specs := make([]Spec, 0, len(fields))
	for _, tok := range fields {
		s, err := parseToken(tok)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

func parseToken(tok string) (Spec, error) {
	if len(tok) < 2 || tok[0] != '%' {
		return Spec{}, fmt.Errorf("fmtspec: token %q does not start with %%", tok)
	}
	body := tok[1:]
	var s Spec
	switch body[0] {
	case '*':
		s.Mode = Star
		body = body[1:]
	case '^':
		s.Mode = Caret
		body = body[1:]
	default:
		if body[0] >= '0' && body[0] <= '9' {
			s.Mode = Fixed
			n := 0
			i := 0
			for i < len(body) && body[i] >= '0' && body[i] <= '9' {
				n = n*10 + int(body[i]-'0')
				i++
			}
			if n <= 0 {
				return Spec{}, fmt.Errorf("fmtspec: token %q has non-positive array length", tok)
			}
			s.N = n
			body = body[i:]
		}
	}
	for k := KindChar; k <= KindString; k++ {
		if kinds[k].letters == body {
			s.Kind = k
		}
	}
	if s.Kind == KindInvalid {
		return Spec{}, fmt.Errorf("fmtspec: token %q has unknown conversion %q", tok, body)
	}
	if s.Kind == KindString && s.Mode != Scalar {
		return Spec{}, fmt.Errorf("fmtspec: token %q: %%s does not support array forms", tok)
	}
	return s, nil
}

// Canonical renders specs back to a normalised format string; two formats
// with equal Canonical forms are identical.
func Canonical(specs []Spec) string {
	var b []byte
	for i, s := range specs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = s.AppendText(b)
	}
	return string(b)
}

// Compatible reports whether a writer using w may talk to a reader using r.
// This is the check behind Pilot's error level 2 ("verifying that reader
// and writer format strings match"). Kinds and positions must agree
// exactly; Fixed and Star array forms are mutually compatible because the
// element count is verified again at transfer time, but Caret only matches
// Caret (the wire layout differs).
func Compatible(w, r []Spec) error {
	if len(w) != len(r) {
		return fmt.Errorf("fmtspec: writer has %d conversions, reader has %d", len(w), len(r))
	}
	for i := range w {
		a, b := w[i], r[i]
		if a.Kind != b.Kind {
			return fmt.Errorf("fmtspec: conversion %d: writer %s vs reader %s", i+1, a, b)
		}
		if !modesCompatible(a.Mode, b.Mode) {
			return fmt.Errorf("fmtspec: conversion %d: writer %s vs reader %s (array forms incompatible)", i+1, a, b)
		}
		if a.Mode == Fixed && b.Mode == Fixed && a.N != b.N {
			return fmt.Errorf("fmtspec: conversion %d: writer %s vs reader %s (lengths differ)", i+1, a, b)
		}
	}
	return nil
}

func modesCompatible(a, b Mode) bool {
	if a == b {
		return true
	}
	arrayish := func(m Mode) bool { return m == Fixed || m == Star }
	return arrayish(a) && arrayish(b)
}

// ArgsRead returns how many caller arguments the spec consumes: Star
// consumes a count plus the slice, everything else one (Caret reads into
// a single *[]T).
func (s Spec) ArgsRead() int {
	if s.Mode == Star {
		return 2
	}
	return 1
}

// ---- arguments ----

// argTypes[read][mode][kind] is the Go type of the argument a value of that
// kind and mode passes through: T written as a scalar and *T read as one,
// []T for an array (after its int count, for %*), and *[]T read as %^,
// whose slice Decode makes. A string has no array forms, so no types.
var argTypes [2][Caret + 1][len(kinds)]reflect.Type

func init() {
	for k := KindChar; k <= KindString; k++ {
		for m := Scalar; m <= Caret; m++ {
			t := kinds[k].elem
			if m != Scalar {
				if k == KindString {
					break
				}
				t = reflect.SliceOf(t)
			}
			argTypes[0][m][k], argTypes[1][m][k] = t, t
			if m == Scalar || m == Caret {
				argTypes[1][m][k] = reflect.PointerTo(t)
			}
		}
	}
}

// arg checks that args begin with what s takes a value from (read false)
// or decodes one into (read true): an int count of at least 0 for %*, then
// an argument of s's type, a slice as long as the array at least. It
// returns that argument, the array's element count and how many arguments
// s consumes.
func (s Spec) arg(args []any, read bool) (v any, n, consumed int, err error) {
	var want reflect.Type
	if s.Mode <= Caret && int(s.Kind) < len(kinds) {
		side := 0
		if read {
			side = 1
		}
		want = argTypes[side][s.Mode][s.Kind]
	}
	if want == nil {
		return nil, 0, 0, fmt.Errorf("fmtspec: %s has no Go type to transfer", s)
	}
	consumed = s.ArgsRead()
	if len(args) < consumed {
		return nil, 0, 0, fmt.Errorf("fmtspec: %s needs %d argument(s), %d left", s, consumed, len(args))
	}
	v, n = args[consumed-1], s.N
	if s.Mode == Star {
		count, ok := args[0].(int)
		if !ok {
			return nil, 0, 0, fmt.Errorf("fmtspec: %s requires an int count before the slice, got %T", s, args[0])
		}
		if count < 0 {
			return nil, 0, 0, fmt.Errorf("fmtspec: %s with negative count %d", s, count)
		}
		n = count
	}
	if reflect.TypeOf(v) != want {
		name := strings.ReplaceAll(want.String(), "uint8", "byte")
		return nil, 0, 0, fmt.Errorf("fmtspec: %%%s requires %s argument, got %T", s.Kind.letter(), name, v)
	}
	if s.Mode == Fixed || s.Mode == Star {
		if have := reflect.ValueOf(v).Len(); have < n {
			return nil, 0, 0, fmt.Errorf("fmtspec: %s needs %d elements, the slice has %d", s, n, have)
		}
	}
	return v, n, consumed, nil
}

// CheckRead checks that args begin with what Decode needs for s: an int
// count for %*, then a destination of the type s decodes into (a pointer
// for a scalar, a slice at least as long as the array, a pointer to a
// slice for %^). It returns how many arguments those are. Decode makes
// the same check before it reads a byte, so a caller can check a whole
// format's destinations before it receives a message.
func CheckRead(s Spec, args []any) (int, error) {
	_, _, consumed, err := s.arg(args, true)
	return consumed, err
}

// ---- encoding ----

// AppendEncode appends the wire form of the value(s) s takes from args to
// dst and returns it with the number of arguments consumed: the one
// encoder. On an error dst comes back as it was.
func AppendEncode(dst []byte, s Spec, args []any) ([]byte, int, error) {
	v, n, consumed, err := s.arg(args, false)
	if err != nil {
		return dst, 0, err
	}
	if s.Mode == Caret {
		n = reflect.ValueOf(v).Len()
		dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	}
	return appendValue(slices.Grow(dst, n*s.Kind.ElemSize()), v, n), consumed, nil
}

// Encode is AppendEncode into a fresh buffer.
func Encode(s Spec, args []any) (payload []byte, consumed int, err error) {
	return AppendEncode(nil, s, args)
}

// One function a kind each way between a Go value and its little-endian
// wire bytes; appendValue and decodeValue apply them to a scalar or to
// every element of an array.
func putI16(b []byte, x int16) []byte  { return binary.LittleEndian.AppendUint16(b, uint16(x)) }
func putU16(b []byte, x uint16) []byte { return binary.LittleEndian.AppendUint16(b, x) }
func putInt(b []byte, x int) []byte    { return binary.LittleEndian.AppendUint64(b, uint64(x)) }
func putI64(b []byte, x int64) []byte  { return binary.LittleEndian.AppendUint64(b, uint64(x)) }
func putUint(b []byte, x uint) []byte  { return binary.LittleEndian.AppendUint64(b, uint64(x)) }
func putU64(b []byte, x uint64) []byte { return binary.LittleEndian.AppendUint64(b, x) }
func putF32(b []byte, x float32) []byte {
	return binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
}
func putF64(b []byte, x float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
}

func getI16(b []byte) int16   { return int16(binary.LittleEndian.Uint16(b)) }
func getU16(b []byte) uint16  { return binary.LittleEndian.Uint16(b) }
func getInt(b []byte) int     { return int(binary.LittleEndian.Uint64(b)) }
func getI64(b []byte) int64   { return int64(binary.LittleEndian.Uint64(b)) }
func getUint(b []byte) uint   { return uint(binary.LittleEndian.Uint64(b)) }
func getU64(b []byte) uint64  { return binary.LittleEndian.Uint64(b) }
func getF32(b []byte) float32 { return math.Float32frombits(binary.LittleEndian.Uint32(b)) }
func getF64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

func appendAll[T any](dst []byte, s []T, put func([]byte, T) []byte) []byte {
	for _, x := range s {
		dst = put(dst, x)
	}
	return dst
}

func fill[T any](dst []T, src []byte, es int, get func([]byte) T) {
	for i := range dst {
		dst[i] = get(src[i*es:])
	}
}

// fresh stores a new slice of n elements through p and returns it.
func fresh[T any](p *[]T, n int) []T {
	*p = make([]T, n)
	return *p
}

// appendValue appends v, whose type arg has checked, in wire form: a
// scalar whole, the first n elements of an array.
func appendValue(dst []byte, v any, n int) []byte {
	switch x := v.(type) {
	case string:
		return append(dst, x...)
	case byte:
		return append(dst, x)
	case int16:
		return putI16(dst, x)
	case uint16:
		return putU16(dst, x)
	case int:
		return putInt(dst, x)
	case int64:
		return putI64(dst, x)
	case uint:
		return putUint(dst, x)
	case uint64:
		return putU64(dst, x)
	case float32:
		return putF32(dst, x)
	case float64:
		return putF64(dst, x)
	case []byte:
		return append(dst, x[:n]...)
	case []int16:
		return appendAll(dst, x[:n], putI16)
	case []uint16:
		return appendAll(dst, x[:n], putU16)
	case []int:
		return appendAll(dst, x[:n], putInt)
	case []int64:
		return appendAll(dst, x[:n], putI64)
	case []uint:
		return appendAll(dst, x[:n], putUint)
	case []uint64:
		return appendAll(dst, x[:n], putU64)
	case []float32:
		return appendAll(dst, x[:n], putF32)
	case []float64:
		return appendAll(dst, x[:n], putF64)
	}
	return dst
}

// ---- decoding ----

// Decode deserialises payload into the destination argument(s) drawn from
// args, returning the number of arguments consumed. It checks the
// destinations first, as CheckRead does, then the payload's length against
// them.
func Decode(s Spec, payload []byte, args []any) (consumed int, err error) {
	v, n, consumed, err := s.arg(args, true)
	if err != nil {
		return 0, err
	}
	switch s.Mode {
	case Scalar:
		n = 1
	case Caret:
		if len(payload) < 4 {
			return 0, fmt.Errorf("fmtspec: %s payload missing length header", s)
		}
		n, payload = int(binary.LittleEndian.Uint32(payload)), payload[4:]
	}
	if want := n * s.Kind.ElemSize(); s.Kind != KindString && len(payload) != want {
		return 0, fmt.Errorf("fmtspec: %s expected %d payload bytes (%d elements), got %d", s, want, n, len(payload))
	}
	decodeValue(v, payload, n)
	return consumed, nil
}

// decodeValue stores src, whose length Decode has checked, through v,
// whose type arg has checked: into a scalar's pointer, or into the first n
// elements of an array (a slice made to fit, for %^).
func decodeValue(v any, src []byte, n int) {
	switch p := v.(type) {
	case *string:
		*p = string(src)
	case *byte:
		*p = src[0]
	case *int16:
		*p = getI16(src)
	case *uint16:
		*p = getU16(src)
	case *int:
		*p = getInt(src)
	case *int64:
		*p = getI64(src)
	case *uint:
		*p = getUint(src)
	case *uint64:
		*p = getU64(src)
	case *float32:
		*p = getF32(src)
	case *float64:
		*p = getF64(src)
	case []byte:
		copy(p[:n], src)
	case []int16:
		fill(p[:n], src, 2, getI16)
	case []uint16:
		fill(p[:n], src, 2, getU16)
	case []int:
		fill(p[:n], src, 8, getInt)
	case []int64:
		fill(p[:n], src, 8, getI64)
	case []uint:
		fill(p[:n], src, 8, getUint)
	case []uint64:
		fill(p[:n], src, 8, getU64)
	case []float32:
		fill(p[:n], src, 4, getF32)
	case []float64:
		fill(p[:n], src, 8, getF64)
	case *[]byte:
		copy(fresh(p, n), src)
	case *[]int16:
		fill(fresh(p, n), src, 2, getI16)
	case *[]uint16:
		fill(fresh(p, n), src, 2, getU16)
	case *[]int:
		fill(fresh(p, n), src, 8, getInt)
	case *[]int64:
		fill(fresh(p, n), src, 8, getI64)
	case *[]uint:
		fill(fresh(p, n), src, 8, getUint)
	case *[]uint64:
		fill(fresh(p, n), src, 8, getU64)
	case *[]float32:
		fill(fresh(p, n), src, 4, getF32)
	case *[]float64:
		fill(fresh(p, n), src, 8, getF64)
	}
}

// DescribeMax bounds the length of any Describe summary: "len: " plus a
// 20-digit count, " first: ", and a worst-case quoted 8-byte prefix
// (4 bytes per escaped byte, the quotes, and the ellipsis) stay well
// under it, so callers can hand AppendDescribe a stack buffer of this
// size and know the append never spills to the heap.
const DescribeMax = 96

// Describe summarises an encoded payload for a log-bubble popup: the data
// length and the value of the first element, as in the paper's PI_Write
// bubbles. The returned text begins with literal words — the paper's
// Jumpshot popup workaround ("Lines: %d" rather than "%d lines").
func Describe(s Spec, payload []byte) string {
	var buf [DescribeMax]byte
	return string(AppendDescribe(buf[:0], s, payload))
}

// AppendDescribe appends Describe's summary to dst, byte-identical to the
// fmt-based formatting but without allocating: Pilot's MsgDeparture
// bubble builds its cargo through here on every PI_Write, so the hot
// path must not pay fmt's interface boxing.
func AppendDescribe(dst []byte, s Spec, payload []byte) []byte {
	es := s.Kind.ElemSize()
	switch {
	case s.Kind == KindString:
		dst = append(dst, "len: "...)
		dst = strconv.AppendInt(dst, int64(len(payload)), 10)
		dst = append(dst, " first: "...)
		return appendQuotedPrefix(dst, payload, 8)
	case s.Mode == Scalar:
		dst = append(dst, "val: "...)
		return appendFirstElem(dst, s.Kind, payload)
	case s.Mode == Caret:
		if len(payload) < 4 {
			return append(dst, "len: 0"...)
		}
		n := int(binary.LittleEndian.Uint32(payload))
		dst = append(dst, "len: "...)
		dst = strconv.AppendInt(dst, int64(n), 10)
		dst = append(dst, " first: "...)
		return appendFirstElem(dst, s.Kind, payload[4:])
	default:
		n := 0
		if es > 0 {
			n = len(payload) / es
		}
		dst = append(dst, "len: "...)
		dst = strconv.AppendInt(dst, int64(n), 10)
		dst = append(dst, " first: "...)
		return appendFirstElem(dst, s.Kind, payload)
	}
}

// appendQuotedPrefix quotes at most max bytes of b as fmt's %q would
// quote truncStr(string(b), max): the whole value when it fits, else the
// prefix with an ellipsis inside the quotes.
func appendQuotedPrefix(dst, b []byte, max int) []byte {
	if len(b) <= max {
		return strconv.AppendQuote(dst, string(b))
	}
	var tmp [16]byte // max prefix bytes + the 3-byte ellipsis
	n := copy(tmp[:], b[:max])
	n += copy(tmp[n:], "…")
	return strconv.AppendQuote(dst, string(tmp[:n]))
}

func appendFirstElem(dst []byte, k Kind, payload []byte) []byte {
	es := k.ElemSize()
	if len(payload) < es || es == 0 {
		return append(dst, '-')
	}
	switch k {
	case KindChar:
		return strconv.AppendQuoteRune(dst, rune(payload[0]))
	case KindInt16:
		return strconv.AppendInt(dst, int64(int16(binary.LittleEndian.Uint16(payload))), 10)
	case KindUint16:
		return strconv.AppendUint(dst, uint64(binary.LittleEndian.Uint16(payload)), 10)
	case KindInt, KindInt64:
		return strconv.AppendInt(dst, int64(binary.LittleEndian.Uint64(payload)), 10)
	case KindUint, KindUint64:
		return strconv.AppendUint(dst, binary.LittleEndian.Uint64(payload), 10)
	case KindFloat32:
		return strconv.AppendFloat(dst, float64(math.Float32frombits(binary.LittleEndian.Uint32(payload))), 'g', -1, 32)
	case KindFloat64:
		return strconv.AppendFloat(dst, math.Float64frombits(binary.LittleEndian.Uint64(payload)), 'g', -1, 64)
	}
	return append(dst, '-')
}
