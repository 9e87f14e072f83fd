package group

import (
	"math/big"
	"math/bits"
)

const wordBits = bits.UintSize // width of a big.Word

// legendre returns the Jacobi symbol (x/p) for x >= 0 and odd p > 0: +1,
// -1, or 0 when gcd(x, p) != 1. It returns 0 for an even or zero p, for
// which the symbol is undefined. For prime p this is the Legendre symbol,
// and Euler's criterion makes (x/p) == 1 equivalent to x^((p-1)/2) == 1
// mod p: the subgroup membership test at quadratic instead of cubic cost.
//
// It is the binary algorithm on the operands' word slices, in place in one
// scratch allocation: strip factors of two from a (each flips the sign
// when n = 3 or 5 mod 8), swap so that a >= n (reciprocity flips the sign
// when both are 3 mod 4), replace a by a - n, which is even, and repeat
// until a is zero; n is then gcd(x, p). Each buffer only ever holds values
// no larger than its initial one, so nothing grows. The running time
// depends on the operands: callers pass public values only.
func legendre(x, p *big.Int) int {
	xw, pw := x.Bits(), p.Bits()
	if len(pw) == 0 || pw[0]&1 == 0 {
		return 0
	}
	scratch := make([]big.Word, len(xw)+len(pw))
	a, n := scratch[:len(xw)], scratch[len(xw):]
	copy(a, xw)
	copy(n, pw)

	var flip big.Word // low bit set: the symbol is -1
	for len(a) > 0 {
		var z uint
		a, z = stripTwos(a)
		flip ^= big.Word(z) & (n[0]>>1 ^ n[0]>>2)
		if cmpWords(a, n) < 0 {
			a, n = n, a
			flip ^= (a[0] & n[0]) >> 1
		}
		a = subWords(a, n)
	}
	if len(n) != 1 || n[0] != 1 {
		return 0
	}
	return 1 - 2*int(flip&1)
}

// stripTwos shifts the nonzero normalized a right, in place, until it is
// odd, and returns it normalized with the number of bits shifted out.
func stripTwos(a []big.Word) ([]big.Word, uint) {
	skip := 0
	for a[skip] == 0 {
		skip++
	}
	s := uint(bits.TrailingZeros(uint(a[skip])))
	if skip == 0 && s == 0 {
		return a, 0
	}
	n := len(a) - skip
	if s == 0 {
		copy(a, a[skip:])
	} else {
		for i := 0; i < n-1; i++ {
			a[i] = a[skip+i]>>s | a[skip+i+1]<<(wordBits-s)
		}
		a[n-1] = a[len(a)-1] >> s
	}
	if a[n-1] == 0 {
		n--
	}
	return a[:n], uint(skip)*wordBits + s
}

// cmpWords compares two normalized word slices as integers.
func cmpWords(a, b []big.Word) int {
	if len(a) != len(b) {
		if len(a) < len(b) {
			return -1
		}
		return 1
	}
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// subWords sets a to a - b in place, for normalized a >= b, and returns it
// normalized.
func subWords(a, b []big.Word) []big.Word {
	var borrow uint
	for i := range b {
		var d uint
		d, borrow = bits.Sub(uint(a[i]), uint(b[i]), borrow)
		a[i] = big.Word(d)
	}
	for i := len(b); borrow != 0; i++ {
		var d uint
		d, borrow = bits.Sub(uint(a[i]), 0, borrow)
		a[i] = big.Word(d)
	}
	n := len(a)
	for n > 0 && a[n-1] == 0 {
		n--
	}
	return a[:n]
}
