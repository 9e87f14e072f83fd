// Fixed-width order-sum arithmetic. The OPE order sum every matching
// decision compares is a bounded nonnegative integer (at most
// NumAttrs·2^CtBits), but the seed implementation kept it as a heap
// *big.Int and allocated a fresh big.Int per candidate on the scan paths.
// This file gives the store a flat representation — little-endian uint64
// limbs, normalized (no high zero limbs) — with allocation-free compare,
// add and subtract, so the hot paths touch no big.Int at all. Chains are
// summed word by word into limbs (addWordAt), from stored bytes or from a
// big.Int's words, with no big.Int arithmetic.
package match

import (
	"math/big"
	"math/bits"

	"smatch/internal/chain"
)

// ordSum is a nonnegative integer as normalized little-endian uint64
// limbs; the empty slice is zero. Two normalized ordSums compare first by
// limb count, then limbwise from the most significant end.
type ordSum []uint64

// limbsFromBig converts a big.Int magnitude (the sign is ignored; callers
// validate nonnegativity at the boundary) into normalized limbs.
func limbsFromBig(x *big.Int) ordSum {
	words := x.Bits()
	if bits.UintSize == 64 {
		out := make(ordSum, len(words))
		for i, w := range words {
			out[i] = uint64(w)
		}
		return out // big.Int words are already normalized
	}
	// 32-bit platforms: pack word pairs into uint64 limbs.
	out := make(ordSum, (len(words)+1)/2)
	for i, w := range words {
		out[i/2] |= uint64(w) << (32 * uint(i%2))
	}
	return trimLimbs(out)
}

// limbsFor is the limb count that holds the sum of d values below
// 2^ctBits: the sum is below d·2^ctBits <= 2^(ctBits+bits.Len(d)).
func limbsFor(ctBits uint, d int) int { return (int(ctBits) + bits.Len(uint(d)) + 63) / 64 }

// addWordAt adds w into acc at limb i and ripples the carry upward. acc
// must be wide enough for the final sum, which bounds every partial sum.
// It is the one chain-summing kernel: newStored feeds it words read from
// a record's bytes, SumOfChain the words of big.Int ciphertexts.
func addWordAt(acc ordSum, i int, w uint64) {
	var c uint64
	acc[i], c = bits.Add64(acc[i], w, 0)
	for c != 0 {
		i++
		acc[i], c = bits.Add64(acc[i], 0, c)
	}
}

// trimLimbs drops high zero limbs, returning the normalized slice.
func trimLimbs(a ordSum) ordSum {
	for len(a) > 0 && a[len(a)-1] == 0 {
		a = a[:len(a)-1]
	}
	return a
}

// cmpLimbs compares two normalized ordSums: -1, 0 or +1.
func cmpLimbs(a, b ordSum) int {
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

// subLimbs writes a-b (a >= b required) into dst's backing array and
// returns the normalized result. dst only ever grows; passing the previous
// return value back in makes steady-state subtraction allocation-free.
func subLimbs(dst ordSum, a, b ordSum) ordSum {
	dst = dst[:0]
	var borrow uint64
	for i := 0; i < len(a); i++ {
		var bi uint64
		if i < len(b) {
			bi = b[i]
		}
		d, br := bits.Sub64(a[i], bi, borrow)
		borrow = br
		dst = append(dst, d)
	}
	return trimLimbs(dst)
}

// addLimbs writes a+b into dst's backing array and returns the normalized
// result, growing dst by at most one limb beyond the longer operand.
func addLimbs(dst ordSum, a, b ordSum) ordSum {
	if len(b) > len(a) {
		a, b = b, a
	}
	dst = dst[:0]
	var carry uint64
	for i := 0; i < len(a); i++ {
		var bi uint64
		if i < len(b) {
			bi = b[i]
		}
		s, c := bits.Add64(a[i], bi, carry)
		carry = c
		dst = append(dst, s)
	}
	if carry != 0 {
		dst = append(dst, carry)
	}
	return dst
}

// Sum is the exported order-sum handle for callers outside the store that
// evaluate order-sum distances on their own hot paths (the notification
// broker's store-event feed). It wraps the limb representation so those
// callers inherit the same allocation-free comparisons without reaching
// into big.Int.
type Sum struct{ w ordSum }

// SumOfChain computes a validated chain's order sum (Entry.Validate) in
// limb form, allocating only the limbs: each ciphertext's words are added
// in place with the kernel the store's records are summed with.
func SumOfChain(ch *chain.Chain) Sum {
	width := ch.CtBits
	for _, ct := range ch.Cts {
		width = max(width, uint(ct.BitLen())) // wider than CtBits only if unvalidated
	}
	acc := make(ordSum, limbsFor(width, len(ch.Cts)))
	for _, ct := range ch.Cts {
		for i, w := range ct.Bits() {
			// Two words per limb on 32-bit platforms, one on 64-bit.
			addWordAt(acc, i*bits.UintSize/64, uint64(w)<<(i*bits.UintSize%64))
		}
	}
	return Sum{w: trimLimbs(acc)}
}

// SumFromBig converts a nonnegative big.Int (e.g. a decoded wire
// threshold) into limb form. The magnitude is taken; callers validate the
// sign at the decode boundary.
func SumFromBig(x *big.Int) Sum { return Sum{w: limbsFromBig(x)} }

// Cmp compares two sums: -1, 0 or +1.
func (a Sum) Cmp(b Sum) int { return cmpLimbs(a.w, b.w) }

// MaxChainSum returns d·(2^ctBits − 1), the largest order sum a
// d-attribute chain of ctBits-wide ciphertexts can reach. The limb
// representation is arbitrary-precision, so scaled (priority-weighted)
// sums can never overflow it — weighting only widens ctBits by the scoring
// profile's extra bits — but every fixed-width consumer (wire thresholds,
// bench harnesses) can use this bound to size its headroom; the boundary
// suite pins the arithmetic at MaxWeight × max attribute count.
func MaxChainSum(d int, ctBits uint) Sum {
	if d <= 0 {
		return Sum{}
	}
	max := new(big.Int).Lsh(big.NewInt(1), ctBits)
	max.Sub(max, big.NewInt(1))
	max.Mul(max, big.NewInt(int64(d)))
	return Sum{w: limbsFromBig(max)}
}

// WithinDist reports whether |a-b| <= d. scratch is an optional reusable
// buffer; passing the returned slice back in keeps steady-state evaluation
// allocation-free.
func (a Sum) WithinDist(b, d Sum, scratch []uint64) (bool, []uint64) {
	hi, lo := a.w, b.w
	if cmpLimbs(hi, lo) < 0 {
		hi, lo = lo, hi
	}
	diff := subLimbs(scratch, hi, lo)
	return cmpLimbs(diff, d.w) <= 0, diff[:0]
}
