package group

import "math/big"

// Pow's kernel is a Lim–Lee fixed-base comb. The exponent's n = Q.BitLen()
// bits are cut into combTeeth teeth of a = ⌈n/combTeeth⌉ bits and each
// tooth into combCols columns of b = ⌈a/combCols⌉ bits, so that
//
//	G^e = ∏_k ( ∏_j tab[j][u(j,k)] )^(2^k),   0 <= k < b,
//
// where bit i of u(j,k) is bit i·a + j·b + k of e and
//
//	tab[j][u] = ∏_{i ∈ bits(u)} G^(2^(i·a + j·b)).
//
// Evaluated by Horner's rule in k that is b−1 squarings and at most
// combCols·b multiplications: 383 modular multiplications at 2048 bits,
// where square-and-multiply with a 4-bit window takes about 2 560. The
// table is combCols·2^combTeeth elements, 128 KiB at 2048 bits. DESIGN §9
// says why 8 × 2; CHANGES.md PR 23 has the measurements.
const (
	combTeeth = 8
	combCols  = 2
)

type comb struct {
	p    *big.Int
	a, b int // tooth and column width in bits
	w    int // words per table entry: len(p.Bits())
	// tab is one slab: entry (j, u) is the w words at (j<<combTeeth | u)·w,
	// least significant first and zero-padded. Slot u = 0 is never read.
	tab []big.Word
}

// modmul computes products mod p into caller-supplied results with scratch
// sized so that math/big never reallocates it.
type modmul struct {
	p    *big.Int
	t, q big.Int
}

func newModmul(p *big.Int) *modmul {
	w := len(p.Bits())
	m := &modmul{p: p}
	m.t.SetBits(make([]big.Word, 0, 2*w))
	m.q.SetBits(make([]big.Word, 0, w+1))
	return m
}

// newResidue returns a zero Int with room for what QuoRem writes into its
// remainder: one word more than the 2w-word dividend, not w words.
func newResidue(p *big.Int) *big.Int {
	return new(big.Int).SetBits(make([]big.Word, 0, 2*len(p.Bits())+1))
}

// mul sets z = x·y mod p. z may be x or y.
func (m *modmul) mul(z, x, y *big.Int) {
	m.t.Mul(x, y)
	m.q.QuoRem(&m.t, m.p, z)
}

func newComb(g *Group) *comb {
	a := (g.Q.BitLen() + combTeeth - 1) / combTeeth
	b := (a + combCols - 1) / combCols
	w := len(g.P.Bits())
	c := &comb{p: g.P, a: a, b: b, w: w, tab: make([]big.Word, (combCols<<combTeeth)*w)}
	m := newModmul(g.P)
	x := newResidue(g.P).Mod(g.G, g.P)
	// One run of squarings passes every generator G^(2^(i·a + j·b)); the
	// positions do not decrease in this loop order because b <= a.
	pos := 0
	for i := 0; i < combTeeth; i++ {
		for j := 0; j < combCols; j++ {
			for ; pos < i*a+j*b; pos++ {
				m.mul(x, x, x)
			}
			c.set(j, 1<<i, x)
		}
	}
	// Each remaining entry is an earlier one times one generator.
	var rest, gen big.Int
	for j := 0; j < combCols; j++ {
		for u := 3; u < 1<<combTeeth; u++ {
			if low := u & -u; low != u {
				m.mul(x, c.entry(&rest, j, u^low), c.entry(&gen, j, low))
				c.set(j, u, x)
			}
		}
	}
	return c
}

func (c *comb) slot(j, u int) []big.Word {
	off := (j<<combTeeth | u) * c.w
	return c.tab[off : off+c.w : off+c.w]
}

// set copies x, which is below p, into slot (j, u) of the fresh table.
func (c *comb) set(j, u int, x *big.Int) {
	copy(c.slot(j, u), x.Bits())
}

// entry points z at slot (j, u). z shares the table's memory: use it as an
// operand only.
func (c *comb) entry(z *big.Int, j, u int) *big.Int {
	return z.SetBits(c.slot(j, u))
}

// pow returns G^e mod p for 0 <= e < 2^(combTeeth·a).
func (c *comb) pow(e *big.Int) *big.Int {
	m := newModmul(c.p)
	acc := newResidue(c.p).SetUint64(1)
	var entry big.Int
	for k := c.b - 1; k >= 0; k-- {
		if k < c.b-1 {
			m.mul(acc, acc, acc)
		}
		// The last column is short when combCols does not divide a.
		for j := 0; j < combCols && j*c.b+k < c.a; j++ {
			u := 0
			for i := combTeeth - 1; i >= 0; i-- {
				u = u<<1 | int(e.Bit(i*c.a+j*c.b+k))
			}
			if u != 0 {
				m.mul(acc, acc, c.entry(&entry, j, u))
			}
		}
	}
	return acc
}
