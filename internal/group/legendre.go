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
// The work is jacobiDivsteps. What it does not finish, x outside [1, p)
// or a gcd other than 1, goes to big.Jacobi, which is exact for every
// input and allocates freely; no caller in this module reaches it with a
// prime p and x in [1, p). The running time depends on the operands:
// callers pass public values only.
func legendre(x, p *big.Int) int {
	pw := p.Bits()
	if len(pw) == 0 || pw[0]&1 == 0 {
		return 0
	}
	if jac, _, ok := jacobiDivsteps(x, p); ok {
		return jac
	}
	return big.Jacobi(x, p)
}

// jacobiDivsteps computes the Jacobi symbol (x/p) for odd p and x in
// [1, p) with Bernstein and Yang's divsteps, in the variable-time,
// sign-tracking form of libsecp256k1's jacobi64_maybe_var: f, g start at
// p, x in 64-bit limbs (one scratch allocation, whatever the width of
// big.Word); each round runs 62 posdivsteps on the low limbs alone, which
// yields a 2×2 matrix, and applies it to the full f and g in one pass. The
// loop stops when f = 1. It reports ok = false, and the caller falls back,
// for x outside [1, p), or when f has not reached 1 after 4·bits/62 + 4
// rounds. That is certain when gcd(x, p) != 1, since f and g then settle
// at the gcd. Posdivsteps have no proven round bound, but the limit is
// about 1.4 times the mean, and TestJacobiConvergesWithinBound finds no
// coprime input that reaches it. rounds is the number of rounds run.
func jacobiDivsteps(x, p *big.Int) (jac, rounds int, ok bool) {
	if x.Sign() <= 0 || x.Cmp(p) >= 0 {
		return 0, 0, false
	}
	n := (p.BitLen() + 63) / 64
	buf := make([]uint64, 2*n)
	f, g := buf[:n], buf[n:]
	loadLimbs(f, p.Bits())
	loadLimbs(g, x.Bits())

	eta := -1 // -delta, delta starts at 1
	var sign uint64
	maxRounds := 4*p.BitLen()/62 + 4
	for rounds = 1; rounds <= maxRounds; rounds++ {
		var t matrix
		eta, sign = posdivsteps62(eta, f[0], g[0], sign, &t)
		updateFG(f, g, &t)
		if f[0] == 1 && isZero(f[1:]) {
			return 1 - 2*int(sign&1), rounds, true
		}
		for len(f) > 1 && f[len(f)-1]|g[len(g)-1] == 0 {
			f, g = f[:len(f)-1], g[:len(g)-1]
		}
	}
	return 0, maxRounds, false
}

// loadLimbs writes the little-endian words src into the zeroed 64-bit
// limbs dst, packing two words per limb where big.Word is 32 bits.
func loadLimbs(dst []uint64, src []big.Word) {
	for i, w := range src {
		dst[i*wordBits/64] |= uint64(w) << (i * wordBits % 64)
	}
}

func isZero(a []uint64) bool {
	for _, w := range a {
		if w != 0 {
			return false
		}
	}
	return true
}

// matrix is a round's transition: 2^62·(f', g') = (u·f + v·g, q·f + r·g).
// The entries are non-negative and each row sums to at most 2^62.
type matrix struct{ u, v, q, r uint64 }

// posdivsteps62 runs 62 posdivsteps on f and g, which need only be correct
// in their low 64 bits, and returns the new eta and sign with the
// transition in t. Each step either halves an even g, flipping the low bit
// of sign when f ≡ 3, 5 (mod 8), or, when eta < 0, swaps f and g (flipping
// sign when f ≡ g ≡ 3 (mod 4): reciprocity) and adds to g the multiple of f
// that clears up to its low 6 bits (4 bits without a swap). The halvings of
// a run of zeros are taken at once. Each step consumes one reliable bit,
// so 64 input bits leave the 3 that f mod 8 needs at the last one.
func posdivsteps62(eta int, f, g, sign uint64, t *matrix) (int, uint64) {
	u, v, q, r := uint64(1), uint64(0), uint64(0), uint64(1)
	i := 62
	for {
		// The sentinel bits stop the count at i. Every shift count here is
		// below 64; the & 63 lets the compiler drop its oversize-shift code.
		zeros := bits.TrailingZeros64(g | ^uint64(0)<<(i&63))
		g >>= zeros & 63
		u <<= zeros & 63
		v <<= zeros & 63
		eta -= zeros
		i -= zeros
		sign ^= uint64(zeros) & (f>>1 ^ f>>2)
		if i == 0 {
			break
		}
		// No more than i bits are cancelled, nor more than eta+1: eta
		// changes sign again once that many halvings are done.
		var w uint64
		if eta < 0 {
			eta = -eta
			u, q = q, u
			v, r = r, v
			f, g = g, f
			sign ^= (f & g) >> 1
			m := (^uint64(0) >> ((64 - min(eta+1, i)) & 63)) & 63
			w = (f * g * (f*f - 2)) & m
		} else {
			m := (^uint64(0) >> ((64 - min(eta+1, i)) & 63)) & 15
			w = f + ((f+1)&4)<<1
			w = (-w * g) & m
		}
		g += f * w
		q += u * w
		r += v * w
	}
	*t = matrix{u, v, q, r}
	return eta, sign
}

// updateFG sets f, g to (u·f + v·g)/2^62, (q·f + r·g)/2^62 in one pass
// over the limbs. The divisions are exact, and the row bound keeps each
// result below max(f, g), so it fits in len(f) limbs.
func updateFG(f, g []uint64, t *matrix) {
	g = g[:len(f)]
	cf, lf := mulAdd2(t.u, f[0], t.v, g[0], 0)
	cg, lg := mulAdd2(t.q, f[0], t.r, g[0], 0)
	for i := 1; i < len(f); i++ {
		hf, nf := mulAdd2(t.u, f[i], t.v, g[i], cf)
		hg, ng := mulAdd2(t.q, f[i], t.r, g[i], cg)
		f[i-1] = lf>>62 | nf<<2
		g[i-1] = lg>>62 | ng<<2
		cf, lf = hf, nf
		cg, lg = hg, ng
	}
	f[len(f)-1] = lf>>62 | cf<<2
	g[len(g)-1] = lg>>62 | cg<<2
}

// mulAdd2 returns a·x + b·y + c as a 128-bit (hi, lo). With a + b <= 2^62
// and c < 2^63 the sum is below 2^127.
func mulAdd2(a, x, b, y, c uint64) (hi, lo uint64) {
	h1, l1 := bits.Mul64(a, x)
	h2, l2 := bits.Mul64(b, y)
	lo, k := bits.Add64(l1, l2, 0)
	hi = h1 + h2 + k
	lo, k = bits.Add64(lo, c, 0)
	return hi + k, lo
}
