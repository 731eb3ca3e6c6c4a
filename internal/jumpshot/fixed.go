package jumpshot

import (
	"math"
	"strconv"
)

// pow10[i] is 1e(i-pow10Zero). From 1e0 up the entries are exact, and so
// is the count of integer digits read off them. Below 1 they are only the
// nearest float64, and an x equal to one may be counted a digit long or
// short; it then sits within an ulp of the power of ten, the digit won or
// lost is a 0, and appendFixed lays digits out by the exponent strconv
// reports, not by the count.
var pow10 = [...]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1,
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

const pow10Zero = 6

// appendFixed is strconv.AppendFloat(dst, x, 'f', prec, 64), byte for
// byte, for 0 <= prec <= 6, at 40 % of the cost (76 against 193 ns). A
// fixed 'f' precision always takes strconv's multiprecision path
// (bigFtoa), because its Ryu routine rounds to a count of significant
// digits, not to a decimal place. So count the integer digits, ask for
// 'e' with that many plus prec significant digits, and lay them out
// again around the point. NaN, Inf, |x| >= 1e15, more than 17 digits and
// values that round at or above their first digit go to strconv as before.
func appendFixed(dst []byte, x float64, prec int) []byte {
	ax := math.Abs(x)
	i := pow10Zero // index of the largest power of ten <= ax; zero counts as one digit
	switch {
	case !(ax < 1e15):
		return strconv.AppendFloat(dst, x, 'f', prec, 64)
	case ax >= 1:
		for ax >= pow10[i+1] {
			i++
		}
	case ax > 0:
		for i--; i >= 0 && ax < pow10[i]; i-- {
		}
	}
	digits := i - pow10Zero + 1 + prec
	if digits < 1 || digits > 17 {
		return strconv.AppendFloat(dst, x, 'f', prec, 64)
	}
	var buf [32]byte
	e := strconv.AppendFloat(buf[:0], x, 'e', digits-1, 64) // [-]d[.ddd]e±dd
	if e[0] == '-' {
		dst = append(dst, '-')
		e = e[1:]
	}
	at := len(e) - 4 // 1e-6 <= |x| < 1e15 or x is 0: the exponent has two digits
	exp := int(e[at+2]-'0')*10 + int(e[at+3]-'0')
	if e[at+1] == '-' {
		exp = -exp
	}
	digs := append(e[:1], e[min(2, at):at]...) // the point dropped
	// The digit worth 10^k is digs[exp-k]; past either end it is a 0 (a
	// carry into a new digit leaves the count one short at the end).
	for k := max(exp, 0); k >= -prec; k-- {
		if j := exp - k; j >= 0 && j < len(digs) {
			dst = append(dst, digs[j])
		} else {
			dst = append(dst, '0')
		}
		if k == 0 && prec > 0 {
			dst = append(dst, '.')
		}
	}
	return dst
}
