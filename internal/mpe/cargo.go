package mpe

import (
	"strconv"

	"repro/internal/clog2"
)

// Append-style cargo builders: every Pilot call site used to render its
// event cargo with fmt.Sprintf and then truncate to the MPE 40-byte
// limit, which allocates on every logged event. These builders format
// directly into the fixed-size buffer, truncating exactly where the old
// Sprintf-then-truncate path did (a rune straddling the boundary is
// dropped whole, see clog2.Trunc), so a stack-allocated Cargo never
// grows or escapes and the hot path stays allocation-free.

// AppendStr appends s to dst, bounding the total length to MaxCargo.
func AppendStr(dst []byte, s string) []byte {
	room := clog2.MaxCargo - len(dst)
	if room <= 0 {
		return dst
	}
	return append(dst, clog2.Trunc(s, room)...)
}

// appendRaw is AppendStr for an already-formatted byte slice.
func appendRaw(dst, b []byte) []byte {
	room := clog2.MaxCargo - len(dst)
	if room <= 0 {
		return dst
	}
	return append(dst, clog2.TruncBytes(b, room)...)
}

// AppendKV appends "key: val", preceded by a space unless dst is empty —
// the "line: %s proc: %s" shape the Pilot cargos use.
func AppendKV(dst []byte, key, val string) []byte {
	if len(dst) > 0 {
		dst = AppendStr(dst, " ")
	}
	dst = AppendStr(dst, key)
	dst = AppendStr(dst, ": ")
	return AppendStr(dst, val)
}

// AppendInt appends the decimal form of v, as fmt's %d would.
func AppendInt(dst []byte, v int) []byte {
	var tmp [20]byte
	return appendRaw(dst, strconv.AppendInt(tmp[:0], int64(v), 10))
}

// AppendFloat appends v with prec digits after the decimal point, as
// fmt's %.*f would.
func AppendFloat(dst []byte, v float64, prec int) []byte {
	var tmp [40]byte
	return appendRaw(dst, strconv.AppendFloat(tmp[:0], v, 'f', prec, 64))
}

// AppendBool appends "true" or "false", as fmt's %v would.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return AppendStr(dst, "true")
	}
	return AppendStr(dst, "false")
}

// Cargo is the chainable form of the Append builders over an in-place
// buffer: declare one on the stack, chain the fields, pass Bytes() to
// the logger's *Bytes methods.
type Cargo struct {
	n   int
	buf [clog2.MaxCargo]byte
}

// Bytes returns the assembled cargo, valid until the next builder call.
func (c *Cargo) Bytes() []byte { return c.buf[:c.n] }

// Str appends s.
func (c *Cargo) Str(s string) *Cargo {
	c.n = len(AppendStr(c.buf[:c.n], s))
	return c
}

// Raw appends an already-formatted byte slice.
func (c *Cargo) Raw(b []byte) *Cargo {
	c.n = len(appendRaw(c.buf[:c.n], b))
	return c
}

// KV appends "key: val", space-separated from any existing content.
func (c *Cargo) KV(key, val string) *Cargo {
	c.n = len(AppendKV(c.buf[:c.n], key, val))
	return c
}

// Int appends the decimal form of v.
func (c *Cargo) Int(v int) *Cargo {
	c.n = len(AppendInt(c.buf[:c.n], v))
	return c
}

// Float appends v with prec digits after the decimal point.
func (c *Cargo) Float(v float64, prec int) *Cargo {
	c.n = len(AppendFloat(c.buf[:c.n], v, prec))
	return c
}

// Bool appends "true" or "false".
func (c *Cargo) Bool(v bool) *Cargo {
	c.n = len(AppendBool(c.buf[:c.n], v))
	return c
}
