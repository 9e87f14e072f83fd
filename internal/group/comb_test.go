package group

import (
	"math/big"
	"testing"
	"unsafe"
)

// powEdgeExponents are the values around the comb's tooth, column and
// order boundaries, and ones Pow has to reduce first.
func powEdgeExponents(g *Group) []*big.Int {
	c := g.precomp().comb
	pow2 := func(n int) *big.Int { return new(big.Int).Lsh(one, uint(n)) }
	huge := new(big.Int).Sub(pow2(4096), big.NewInt(12345))
	es := []*big.Int{
		new(big.Int), big.NewInt(1), big.NewInt(2),
		new(big.Int).Sub(g.Q, one), g.Q, new(big.Int).Add(g.Q, one),
		big.NewInt(-1), big.NewInt(-987654321), new(big.Int).Neg(g.Q), new(big.Int).Neg(huge),
		new(big.Int).Lsh(g.Q, 1), huge,
	}
	for _, n := range []int{c.b, c.a, c.a + c.b, (combTeeth - 1) * c.a, g.Q.BitLen() - 1} {
		es = append(es, pow2(n), new(big.Int).Sub(pow2(n), one))
	}
	return es
}

// TestPowMatchesExp: Pow is Exp(G, e) for every integer e, on the
// built-in group and on generated groups, one of them (130 bits) with an
// odd tooth width so that its second column is short.
func TestPowMatchesExp(t *testing.T) {
	for name, g := range testGroups(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			n := 1000
			if testing.Short() {
				n = 50
			}
			es := powEdgeExponents(g)
			for i := 0; i < n; i++ {
				e, err := g.RandScalar(nil)
				if err != nil {
					t.Fatal(err)
				}
				// Every eighth exponent is short, so high teeth are empty.
				if i%8 == 7 {
					e.Rsh(e, uint(i*g.Q.BitLen()/n))
				}
				es = append(es, e)
			}
			for _, e := range es {
				e0 := new(big.Int).Set(e)
				got, want := g.Pow(e), g.Exp(g.G, e)
				if got.Cmp(want) != 0 {
					t.Fatalf("Pow(%x) = %x, Exp says %x", e, got, want)
				}
				if e.Cmp(e0) != 0 {
					t.Fatalf("Pow modified its exponent %x", e0)
				}
			}
		})
	}
}

// TestCombTableIsOneSlab: every entry Pow multiplies by is a view into the
// one table allocation, of exactly w words. A backing array per entry
// would cost a small deployment several percent of its heap.
func TestCombTableIsOneSlab(t *testing.T) {
	d := Default2048()
	c := d.precomp().comb
	if want := (combCols << combTeeth) * len(d.P.Bits()); len(c.tab) != want || cap(c.tab) != want {
		t.Fatalf("table is %d words (cap %d), want %d", len(c.tab), cap(c.tab), want)
	}
	if bytes := len(c.tab) * int(unsafe.Sizeof(big.Word(0))); bytes != 128<<10 {
		t.Errorf("2048-bit table is %d bytes, want 128 KiB", bytes)
	}
	var e big.Int
	for j := 0; j < combCols; j++ {
		for u := 1; u < 1<<combTeeth; u++ {
			bits := c.entry(&e, j, u).Bits()
			off := (j<<combTeeth | u) * c.w
			if len(bits) == 0 || &bits[0] != &c.tab[off] || cap(bits) > c.w {
				t.Fatalf("entry (%d, %d) does not alias its %d-word slot", j, u, c.w)
			}
			if u&(u-1) != 0 && u%37 != 0 {
				continue // Exp is slow: check the generators and a sample
			}
			// tab[j][u] = G^(Σ_{i ∈ bits(u)} 2^(i·a + j·b)).
			exp := new(big.Int)
			for i := 0; i < combTeeth; i++ {
				if u>>i&1 == 1 {
					exp.SetBit(exp, i*c.a+j*c.b, 1)
				}
			}
			if want := d.Exp(d.G, exp); e.Cmp(want) != 0 {
				t.Fatalf("entry (%d, %d) is not G^%x", j, u, exp)
			}
		}
	}
}

// Fixed safe primes for the fuzz targets, so that a corpus means the same
// on every run: at 256 bits the comb's tooth width is 32, at 130 bits 17.
const (
	safePrime256 = "d06047de84ecc139fcfaa09b905d9992517df4c2571cd71578f3679bf0ed3bf7"
	safePrime130 = "3f3392e2522963f68a74cd3813213dd63"
)

// FuzzPowMatchesExp feeds Pow arbitrary exponents, negative and oversized
// ones included, on a group with an even tooth width and one with an odd.
// The groups are small so that the fuzzer gets through many exponents;
// TestPowMatchesExp covers the built-in size.
func FuzzPowMatchesExp(f *testing.F) {
	mk := func(hexP string) *Group {
		g := mustFromHex(hexP)
		if err := g.Validate(); err != nil {
			f.Fatal(err)
		}
		return g
	}
	groups := []*Group{
		mk(safePrime256), // a = 32
		mk(safePrime130), // a = 17
	}
	f.Add([]byte{0}, false)
	f.Add([]byte{1}, true)
	f.Add(groups[0].Q.Bytes(), false)
	f.Add(new(big.Int).Lsh(one, 32).Bytes(), false)
	f.Fuzz(func(t *testing.T, eb []byte, neg bool) {
		if len(eb) > 600 {
			return
		}
		e := new(big.Int).SetBytes(eb)
		if neg {
			e.Neg(e)
		}
		for _, g := range groups {
			if got, want := g.Pow(e), g.Exp(g.G, e); got.Cmp(want) != 0 {
				t.Fatalf("%d-bit group: Pow(%x) = %x, Exp says %x", g.P.BitLen(), e, got, want)
			}
		}
	})
}

func BenchmarkCombBuild2048(b *testing.B) {
	g := Default2048()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		newComb(g)
	}
}
