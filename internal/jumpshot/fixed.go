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

// pow5[p] is 5^p, the odd part of 10^p, up to shortest's most places.
var pow5 = func() (t [25]uint64) {
	t[0] = 1
	for i := 1; i < len(t); i++ {
		t[i] = 5 * t[i-1]
	}
	return
}()

// AppendShortest is strconv.AppendFloat(dst, x, 'f', -1, 64), byte for
// byte: the fewest digits that read back as x (see shortest).
func AppendShortest(dst []byte, x float64) []byte {
	return appendFixed(dst, x, -1)
}

// appendFixed is strconv.AppendFloat(dst, x, 'f', prec, 64), byte for
// byte, for -1 <= prec <= 6; -1 is the shortest form, which shortest
// finds. A fixed 'f' precision always takes strconv's multiprecision
// path (bigFtoa), because its Ryu routine rounds to a count of
// significant digits, not to a decimal place. Here the rounding is exact
// integer arithmetic instead: x is m·2^-s with m and s integers, so N =
// m·10^prec / 2^s, rounded half to even as strconv rounds, is a 128-bit
// product shifted right, and N's digits are x's with the point prec
// places from the right. On BenchmarkAppendFixed (2-vCPU Xeon) that is 35
// and 41 ns a call at one and six places, against 108 and 104 ns for the
// 'e'-digits route it replaced and about 250 ns for strconv. NaN, ±Inf
// and magnitudes where N would pass 2^63 (x >= 2^52, or 9.2e12 at six
// places) go to strconv.
func appendFixed(dst []byte, x float64, prec int) []byte {
	b := math.Float64bits(x)
	var n uint64
	if prec < 0 {
		var ok bool
		if n, prec, ok = shortest(b); !ok {
			return strconv.AppendFloat(dst, x, 'f', -1, 64)
		}
	} else {
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
		// 128 bits: above 1<<127 is above half. Go shifts an unsigned word
		// by 64 or more to 0, so each sum keeps the one term that applies.
		n = lo>>s | hi<<(64-s) | hi>>(s-64)
		t := 128 - s
		rhi, rlo := hi<<t|lo>>(64-t)|lo<<(t-64), lo<<t
		if rhi > 1<<63 || rhi == 1<<63 && (rlo != 0 || n&1 == 1) {
			n++
		}
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

// shortest is N and its places for the float64 bits b's shortest 'f'
// form, the one strconv writes: the fewest digits that read back as x,
// and of those the nearest to x, ties to even. It is strconv's digit loop
// (Ryu's) run on exact integers. x = m·2^-s lies inside the interval of
// reals that round to it, whose bounds are (4m ± 2)/2^(s+2), or
// (4m - 1)/2^(s+2) below a power of two. The centre and both bounds times
// 10^p, where p puts 18 to 20 significant digits before the point, are
// m·5^p, a 128-bit product, shifted right: the bits shifted out say which
// of the three is exact. Trailing digits then come off while a shorter
// number still lies between the bounds, and the centre is rounded to
// what is left. Zero and subnormals, magnitudes from 2^52 up or below
// 2^-20 (encoding/json writes those as 'e'), NaN and ±Inf are not ok.
func shortest(b uint64) (n uint64, places int, ok bool) {
	exp, m := int(b>>52&0x7ff), b&(1<<52-1)|1<<52
	e := exp - 1023 // 2^e <= |x| < 2^(e+1)
	if exp == 0 || e >= 52 || e < -20 {
		return 0, 0, false
	}
	// p is the most places that keep the upper bound under 2^64:
	// 10^p <= 2^(63-e) (78913/2^18 is log10 2 from below), so each of the
	// three is a·5^p / 2^k for k = s+2-p, in [0, 50].
	p := (63 - e) * 78913 >> 18
	k := uint(54 - e - p)
	five := pow5[p]
	hi, lo := bits.Mul64(m, five)
	hi, lo = hi<<2|lo>>62, lo<<2 // 4m·5^p
	uhi, ulo := hi, lo+2*five
	if ulo < lo {
		uhi++
	}
	below := 2 * five
	if m == 1<<52 { // the neighbour below is half as far
		below = five
	}
	lhi, llo := hi, lo-below
	if llo > lo {
		lhi--
	}
	mask := uint64(1)<<k - 1
	c, cfrac := lo>>k|hi<<(64-k), lo&mask
	u, ufrac := ulo>>k|uhi<<(64-k), ulo&mask
	l, lfrac := llo>>k|lhi<<(64-k), llo&mask
	// A bound is a candidate when it is exact and m is even (round half
	// to even reads the bound back as x): l is the least candidate and u
	// the greatest. The centre rounds up past a half, and at an exact
	// half to even; c0 says that no digit dropped from it before the last
	// was nonzero.
	even := m&1 == 0
	if ufrac == 0 && !even {
		u--
	}
	if lfrac != 0 || !even {
		l++
	}
	c0 := cfrac == 0
	cup := 2*cfrac > 1<<k || 2*cfrac == 1<<k && c&1 == 1
	places = p
	var last uint64 // the last digit dropped from c
	for {
		l10, c10, u10 := (l+9)/10, c/10, u/10
		if l10 > u10 {
			break
		}
		cd := c - 10*c10
		if l10 == c10+1 && c10 < u10 { // c would fall below l: take l
			c10, cd, cup = l10, 0, false
		}
		c0 = c0 && last == 0
		last = cd
		l, c, u = l10, c10, u10
		places--
	}
	if places < p {
		cup = last > 5 || last == 5 && (!c0 || c&1 == 1)
	}
	if c < u && cup {
		c++
	}
	for places > 0 && c%10 == 0 {
		c /= 10
		places--
	}
	if places < 0 { // below 2^52, so the zeros fit
		c *= tens[-places]
		places = 0
	}
	return c, places, true
}

// pairs is "00" to "99", for writing two digits a division.
const pairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839" +
	"40414243444546474849505152535455565758596061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"
