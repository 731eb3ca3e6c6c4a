package jumpshot

import (
	"math"
	"math/bits"
	"slices"
	"strconv"
)

// tens[p] is 10^p: the scale of a precision, and where a digit count
// steps.
var tens = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18}

// appendFixed is strconv.AppendFloat(dst, x, 'f', prec, 64), byte for
// byte, for 0 <= prec <= 6. A fixed 'f' precision always takes strconv's
// multiprecision path (bigFtoa), because its Ryu routine rounds to a
// count of significant digits, not to a decimal place. Here the rounding
// is exact integer arithmetic instead: x is m·2^-s with m and s integers,
// so N = m·10^prec / 2^s, rounded half to even as strconv rounds, is a
// 128-bit product shifted right, and N's digits are x's with the point
// prec places from the right. On BenchmarkAppendFixed (2-vCPU Xeon) that
// is 35 and 41 ns a call at one and six places, against 108 and 104 ns
// for the 'e'-digits route it replaced and about 250 ns for strconv. NaN,
// ±Inf and magnitudes where N would pass 2^63 (x >= 2^52, or 9.2e12 at
// six places) go to strconv.
func appendFixed(dst []byte, x float64, prec int) []byte {
	b := math.Float64bits(x)
	exp, m := uint(b>>52&0x7ff), b&(1<<52-1)
	if exp == 0 { // zero or subnormal: m·2^-1074
		exp = 1
	} else {
		m |= 1 << 52
	}
	// x = ±m·2^-s; s < 1 is x >= 2^52, NaN or ±Inf.
	if exp >= 1075 {
		return strconv.AppendFloat(dst, x, 'f', prec, 64)
	}
	s := min(1075-exp, 127) // m·10^prec < 2^73: from 74 places on it all rounds to 0
	hi, lo := bits.Mul64(m, tens[prec])
	if hi>>(s-1) != 0 { // N >= 2^63
		return strconv.AppendFloat(dst, x, 'f', prec, 64)
	}
	// The quotient of hi:lo by 2^s, and the remainder left-aligned in
	// 128 bits: above 1<<127 is above half. Go shifts an unsigned word by
	// 64 or more to 0, so each sum keeps the one term that applies.
	n := lo>>s | hi<<(64-s) | hi>>(s-64)
	t := 128 - s
	rhi, rlo := hi<<t|lo>>(64-t)|lo<<(t-64), lo<<t
	if rhi > 1<<63 || rhi == 1<<63 && (rlo != 0 || n&1 == 1) {
		n++
	}
	if b>>63 != 0 {
		dst = append(dst, '-')
	}
	// N's digits, written from the right straight into dst: prec of them
	// after the point, and at least one before it, two a division.
	// N has t or t+1 digits, t = ⌊log10 2^len(N)⌋ (1233/4096 is log10 2
	// from below); a zero has none.
	digits := bits.Len64(n) * 1233 >> 12
	if n >= tens[digits] {
		digits++
	}
	i := len(dst) + max(digits, prec+1) + min(prec, 1)
	dst = slices.Grow(dst, i-len(dst))[:i]
	for p := prec; p > 0; p -= 2 {
		q := n / 100
		d := 2 * (n - 100*q)
		n = q
		i -= 2
		dst[i], dst[i+1] = pairs[d], pairs[d+1]
	}
	if prec&1 == 1 { // one place too many: put it back before the point
		n = 10*n + uint64(dst[i]-'0')
		i++
	}
	if prec > 0 {
		i--
		dst[i] = '.'
	}
	for n >= 100 {
		q := n / 100
		d := 2 * (n - 100*q)
		n = q
		i -= 2
		dst[i], dst[i+1] = pairs[d], pairs[d+1]
	}
	if n >= 10 {
		dst[i-2], dst[i-1] = pairs[2*n], pairs[2*n+1]
	} else {
		dst[i-1] = byte('0' + n)
	}
	return dst
}

// pairs is "00" to "99", for writing two digits a division.
const pairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839" +
	"40414243444546474849505152535455565758596061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"
