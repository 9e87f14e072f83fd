// Weighted-store boundary suite. Priority weighting never reaches the
// store as a concept — it only widens ciphertexts and pushes order sums
// into multi-limb territory. These tests drive the churn storm with
// weighted-scale sums and pin the limb arithmetic at the exact bit budget
// the scoring layer can demand (MaxWeight = 2^20 times a full-width
// attribute sum over the largest possible chain).
package match

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"smatch/internal/chain"
	"smatch/internal/profile"
	"smatch/internal/scoring"
)

// weightedFakeChain mimics a chain sealed under a heavy priority vector:
// ciphertexts wide enough that order sums span multiple uint64 limbs.
func weightedFakeChain(base int64) *chain.Chain {
	sum := new(big.Int).Lsh(big.NewInt(base), 72)
	sum.Add(sum, big.NewInt(base%7)) // low-limb noise so both limbs matter
	return &chain.Chain{Cts: []*big.Int{sum}, CtBits: 84}
}

// TestWeightedChurnEquivalence re-runs the churn storm with multi-limb
// sums drawn from a narrow band (ties and (sum, ID) breaks still constant)
// and thresholds at the same 2^72 scale, asserting the skiplist store and
// the reference slice store stay byte-identical when every comparison is
// multi-limb.
func TestWeightedChurnEquivalence(t *testing.T) {
	keys := []string{"wbucket-a", "wbucket-b", "wbucket-c", "wbucket-d"}
	for _, seed := range []int64{3, 11, 77} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			churnStormWith(t, seed, 4000, keys,
				func(rng *rand.Rand, id profile.ID) Entry {
					return Entry{
						ID:      id,
						KeyHash: []byte(keys[rng.Intn(len(keys))]),
						Chain:   weightedFakeChain(int64(rng.Intn(64))),
						Auth:    []byte(fmt.Sprintf("auth-%d", id)),
					}
				},
				func(rng *rand.Rand) *big.Int {
					return new(big.Int).Lsh(big.NewInt(int64(rng.Intn(32))), 72)
				})
		})
	}
}

// TestMaxChainSumMatchesBigInt pins MaxChainSum against the d·(2^b−1)
// formula computed independently, across the widths the weighted pipeline
// produces (48-bit legacy, 64-bit default, 84-bit at MaxWeight, and a
// deliberately oversized 128).
func TestMaxChainSumMatchesBigInt(t *testing.T) {
	for _, d := range []int{1, 3, 16, 1 << 16} {
		for _, bitsW := range []uint{48, 64, 64 + 20, 128} {
			want := new(big.Int).Lsh(big.NewInt(1), bitsW)
			want.Sub(want, big.NewInt(1))
			want.Mul(want, big.NewInt(int64(d)))
			got := MaxChainSum(d, bitsW)
			if got.Cmp(SumFromBig(want)) != 0 {
				t.Fatalf("MaxChainSum(%d, %d) != d·(2^b−1)", d, bitsW)
			}
			if got.BitLen() != want.BitLen() {
				t.Fatalf("MaxChainSum(%d, %d).BitLen = %d, want %d", d, bitsW, got.BitLen(), want.BitLen())
			}
		}
	}
	if MaxChainSum(0, 64).BitLen() != 0 || MaxChainSum(-1, 64).BitLen() != 0 {
		t.Error("degenerate attribute counts are not zero")
	}
}

// TestWeightedSumHeadroom builds the absolute worst-case weighted chain —
// the maximum wire attribute count, every ciphertext saturated at the
// MaxWeight-widened width — and checks the limb sum agrees with big.Int
// and with MaxChainSum exactly. Any fixed-width shortcut in the sum path
// would clip here.
func TestWeightedSumHeadroom(t *testing.T) {
	const d = 1 << 16 // wire.UploadReq.NumAttrs is uint16
	ctBits := uint(64) + scoring.Weights{scoring.MaxWeight}.ExtraBits()
	if ctBits != 84 {
		t.Fatalf("MaxWeight widens to %d bits, want 84", ctBits)
	}
	maxCt := new(big.Int).Lsh(big.NewInt(1), ctBits)
	maxCt.Sub(maxCt, big.NewInt(1))
	cts := make([]*big.Int, d)
	for i := range cts {
		cts[i] = maxCt // OrderSum only reads, sharing is safe here
	}
	ch := &chain.Chain{Cts: cts, CtBits: ctBits}
	got := SumOfChain(ch)
	if got.Cmp(MaxChainSum(d, ctBits)) != 0 {
		t.Fatal("saturated weighted chain sum != MaxChainSum bound")
	}
	wantBits := new(big.Int).Mul(maxCt, big.NewInt(d)).BitLen()
	if got.BitLen() != wantBits {
		t.Fatalf("saturated sum BitLen = %d, want %d", got.BitLen(), wantBits)
	}
	if got.BitLen() <= 64 {
		t.Fatal("worst case unexpectedly fits one limb; the test lost its point")
	}
}

// TestSumOfChainMatchesOrderSum is a seeded differential of both users of
// the chain-summing kernel — SumOfChain on big.Int ciphertexts and the
// record constructor on a chain's bytes — against chain.OrderSum, at
// widths that end on and off limb and byte boundaries, at the
// MaxWeight-widened width, and at saturated sums over the largest chain
// a record can hold.
func TestSumOfChainMatchesOrderSum(t *testing.T) {
	check := func(ch *chain.Chain) {
		t.Helper()
		want := SumFromBig(ch.OrderSum())
		if SumOfChain(ch).Cmp(want) != 0 {
			t.Fatalf("SumOfChain(%d × %d bits) != OrderSum", ch.NumAttrs(), ch.CtBits)
		}
		r, err := newStored(1, ch.CtBits, ch.NumAttrs(), ch.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if cmpLimbs(r.sumLimbs, want.w) != 0 {
			t.Fatalf("record sum of %d × %d bits != OrderSum", ch.NumAttrs(), ch.CtBits)
		}
	}
	weighted := uint(64) + scoring.Weights{scoring.MaxWeight}.ExtraBits()
	rng := rand.New(rand.NewSource(48))
	for _, ctBits := range []uint{48, 64, 80, 2048, weighted} {
		for trial := 0; trial < 200; trial++ {
			check(randChain(rng, 1+rng.Intn(17), ctBits))
		}
	}
	for _, ctBits := range []uint{64, weighted} {
		top := new(big.Int).Lsh(big.NewInt(1), ctBits)
		top.Sub(top, big.NewInt(1))
		cts := make([]*big.Int, math.MaxUint16)
		for i := range cts {
			cts[i] = top
		}
		check(&chain.Chain{Cts: cts, CtBits: ctBits})
	}
}

// TestWithinDistLimbBoundaries checks |a−b| <= d decisions exactly at limb
// edges, where a borrow propagates across every limb.
func TestWithinDistLimbBoundaries(t *testing.T) {
	big2 := func(shift uint, add int64) Sum {
		v := new(big.Int).Lsh(big.NewInt(1), shift)
		v.Add(v, big.NewInt(add))
		return SumFromBig(v)
	}
	cases := []struct {
		name    string
		a, b, d Sum
		want    bool
	}{
		{"exact at 2^128-1", big2(128, 0), SumFromBig(big.NewInt(1)), big2(128, -1), true},
		{"one short of 2^128-1", big2(128, 0), SumFromBig(big.NewInt(1)), big2(128, -2), false},
		{"borrow across limb", big2(64, 0), SumFromBig(big.NewInt(1)), big2(64, -1), true},
		{"zero distance equal", big2(72, 5), big2(72, 5), Sum{}, true},
		{"zero distance unequal", big2(72, 5), big2(72, 4), Sum{}, false},
		{"symmetric order", SumFromBig(big.NewInt(1)), big2(128, 0), big2(128, -1), true},
	}
	var scratch []uint64
	for _, c := range cases {
		var ok bool
		ok, scratch = c.a.WithinDist(c.b, c.d, scratch)
		if ok != c.want {
			t.Errorf("%s: WithinDist = %v, want %v", c.name, ok, c.want)
		}
	}
}

// TestLimbArithmeticMatchesBigInt is a seeded differential of the raw limb
// add/sub/cmp against big.Int over operands straddling one to three limbs.
func TestLimbArithmeticMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	randBig := func() *big.Int {
		v := new(big.Int)
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			v.Lsh(v, 64)
			v.Add(v, new(big.Int).SetUint64(rng.Uint64()))
		}
		if rng.Intn(8) == 0 { // force boundary values
			v.Lsh(big.NewInt(1), uint(64*(1+rng.Intn(3))))
		}
		return v
	}
	var dst ordSum
	for i := 0; i < 2000; i++ {
		a, b := randBig(), randBig()
		la, lb := limbsFromBig(a), limbsFromBig(b)
		if got, want := cmpLimbs(la, lb), a.Cmp(b); got != want {
			t.Fatalf("cmpLimbs(%v, %v) = %d, want %d", a, b, got, want)
		}
		dst = addLimbs(dst, la, lb)
		if cmpLimbs(dst, limbsFromBig(new(big.Int).Add(a, b))) != 0 {
			t.Fatalf("addLimbs(%v, %v) diverged from big.Int", a, b)
		}
		hi, lo, bigHi, bigLo := la, lb, a, b
		if a.Cmp(b) < 0 {
			hi, lo, bigHi, bigLo = lb, la, b, a
		}
		dst = subLimbs(dst, hi, lo)
		if cmpLimbs(dst, limbsFromBig(new(big.Int).Sub(bigHi, bigLo))) != 0 {
			t.Fatalf("subLimbs(%v, %v) diverged from big.Int", bigHi, bigLo)
		}
	}
}
