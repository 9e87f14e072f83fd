package chain

import (
	"math/big"
	"testing"

	"smatch/internal/ope"
	"smatch/internal/prf"
)

func testCodec(t testing.TB, key string) *Codec {
	t.Helper()
	scheme, err := ope.NewScheme([]byte(key), ope.Params{PlaintextBits: 32, CiphertextBits: 48})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewScoredCodec(scheme, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mapped(vals ...int64) []*big.Int {
	out := make([]*big.Int, len(vals))
	for i, v := range vals {
		out[i] = big.NewInt(v)
	}
	return out
}

func TestNewCodecNilScheme(t *testing.T) {
	if _, err := NewScoredCodec(nil, nil); err == nil {
		t.Error("nil scheme accepted")
	}
}

func TestSealEmptyVector(t *testing.T) {
	c := testCodec(t, "k")
	if _, err := c.Seal(nil, prf.New([]byte("u"), nil)); err == nil {
		t.Error("empty vector accepted")
	}
}

func TestSealProducesChain(t *testing.T) {
	c := testCodec(t, "k")
	ch, err := c.Seal(mapped(10, 20, 30, 40), prf.New([]byte("u1"), nil))
	if err != nil {
		t.Fatal(err)
	}
	if ch.NumAttrs() != 4 {
		t.Errorf("NumAttrs = %d, want 4", ch.NumAttrs())
	}
	if ch.CtBits != 48 {
		t.Errorf("CtBits = %d, want 48", ch.CtBits)
	}
}

func TestOrderSumPermutationInvariant(t *testing.T) {
	// Two users with identical mapped values but different secret
	// permutations must produce the same order sum — Definition 4's
	// distance has to be invariant under per-user chain order.
	c := testCodec(t, "shared-key")
	vals := mapped(100, 2000, 30000, 400000, 5000000)
	chA, err := c.Seal(vals, prf.New([]byte("alice"), nil))
	if err != nil {
		t.Fatal(err)
	}
	chB, err := c.Seal(vals, prf.New([]byte("bob"), nil))
	if err != nil {
		t.Fatal(err)
	}
	if chA.OrderSum().Cmp(chB.OrderSum()) != 0 {
		t.Error("order sums differ across permutations of the same values")
	}
	// And the permutations themselves do differ (5! = 120 orders, two
	// independent draws colliding is possible but the PRF streams here
	// are fixed, so this is a deterministic regression check).
	same := true
	for i := range chA.Cts {
		if chA.Cts[i].Cmp(chB.Cts[i]) != 0 {
			same = false
			break
		}
	}
	if same {
		t.Log("note: both users drew the identity permutation; test still valid")
	}
}

func TestOrderSumOrdering(t *testing.T) {
	// A user whose every mapped value dominates another's must have the
	// larger order sum (OPE preserves per-attribute order, sums preserve
	// domination).
	c := testCodec(t, "k2")
	lo, err := c.Seal(mapped(1, 2, 3), prf.New([]byte("lo"), nil))
	if err != nil {
		t.Fatal(err)
	}
	hi, err := c.Seal(mapped(1000, 2000, 3000), prf.New([]byte("hi"), nil))
	if err != nil {
		t.Fatal(err)
	}
	if lo.OrderSum().Cmp(hi.OrderSum()) >= 0 {
		t.Error("dominated profile has larger order sum")
	}
}

func TestBytesParseRoundTrip(t *testing.T) {
	c := testCodec(t, "k3")
	ch, err := c.Seal(mapped(7, 77, 777), prf.New([]byte("u"), nil))
	if err != nil {
		t.Fatal(err)
	}
	b := ch.Bytes()
	got, err := Parse(b, 3, 48)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ch.Cts {
		if got.Cts[i].Cmp(ch.Cts[i]) != 0 {
			t.Fatalf("ciphertext %d changed in round trip", i)
		}
	}
	if got.OrderSum().Cmp(ch.OrderSum()) != 0 {
		t.Error("order sum changed in round trip")
	}
}

func TestParseValidation(t *testing.T) {
	if _, err := Parse([]byte{1, 2, 3}, 0, 48); err == nil {
		t.Error("zero attribute count accepted")
	}
	if _, err := Parse(make([]byte, 10), 3, 48); err == nil {
		t.Error("wrong length accepted")
	}
}

func TestBitLenAccounting(t *testing.T) {
	c := testCodec(t, "k4")
	ch, err := c.Seal(mapped(1, 2, 3, 4, 5, 6), prf.New([]byte("u"), nil))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ch.BitLen(), 6*48; got != want {
		t.Errorf("BitLen = %d, want %d", got, want)
	}
	if got := len(ch.Bytes()) * 8; got != ch.BitLen() {
		t.Errorf("Bytes length %d bits disagrees with BitLen %d", got, ch.BitLen())
	}
}

func TestDeterministicSealPerUser(t *testing.T) {
	c := testCodec(t, "k5")
	ch1, _ := c.Seal(mapped(5, 6), prf.New([]byte("same-user"), nil))
	ch2, _ := c.Seal(mapped(5, 6), prf.New([]byte("same-user"), nil))
	for i := range ch1.Cts {
		if ch1.Cts[i].Cmp(ch2.Cts[i]) != 0 {
			t.Fatal("same user, same values: chain differs")
		}
	}
}

func BenchmarkSeal6Attrs(b *testing.B) {
	c := testCodec(b, "bench")
	vals := mapped(1, 2, 3, 4, 5, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Seal(vals, prf.New([]byte("u"), nil)); err != nil {
			b.Fatal(err)
		}
	}
}

// prfStreamForTest gives quick-check properties a fresh deterministic
// permutation stream.
func prfStreamForTest() *prf.Stream {
	return prf.New([]byte("chain-quick"), nil)
}
