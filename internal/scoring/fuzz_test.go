package scoring

import (
	"bytes"
	"math/big"
	"testing"

	"smatch/internal/chain"
	"smatch/internal/ope"
	"smatch/internal/prf"
	"smatch/internal/profile"
)

// FuzzWeightedSeal is the differential fuzzer for the scoring layer: for an
// arbitrary weight vector and attribute values, sealing through the plugged
// scorer must equal scaling by hand and sealing through the legacy (unit)
// codec — byte for byte, under the same key and the same permutation
// stream. Unit weight vectors additionally pin the anchor property: the
// scored codec's output is identical to the legacy codec's on the
// unscaled values.
func FuzzWeightedSeal(f *testing.F) {
	f.Add(uint32(1), uint32(1), uint32(1), uint64(10), uint64(20), uint64(30), []byte("seed"))
	f.Add(uint32(3), uint32(1), uint32(5), uint64(0), uint64(1<<16), uint64(255), []byte("k"))
	f.Add(uint32(MaxWeight), uint32(MaxWeight), uint32(MaxWeight), uint64(1)<<63, uint64(1), uint64(0), []byte("max"))
	f.Add(uint32(2), uint32(1024), uint32(7), uint64(12345), uint64(678910), uint64(1112), []byte("zipfish"))

	const kBits = 64
	f.Fuzz(func(t *testing.T, w1, w2, w3 uint32, a1, a2, a3 uint64, keySeed []byte) {
		w := Weights{w1 % MaxWeight, w2 % MaxWeight, w3 % MaxWeight}
		for i := range w {
			if w[i] == 0 {
				w[i] = 1
			}
		}
		if len(keySeed) == 0 {
			keySeed = []byte{0}
		}
		schema := profile.Schema{Attrs: []profile.AttributeSpec{
			{Name: "a", NumValues: 2}, {Name: "b", NumValues: 2}, {Name: "c", NumValues: 2},
		}}
		prof, err := NewProfile(schema, w)
		if err != nil {
			t.Fatal(err)
		}
		params := ope.Params{PlaintextBits: kBits + w.ExtraBits(), CiphertextBits: kBits + 16 + w.ExtraBits()}

		scheme1, err := ope.NewScheme(keySeed, params)
		if err != nil {
			t.Fatal(err)
		}
		scheme2, err := ope.NewScheme(keySeed, params)
		if err != nil {
			t.Fatal(err)
		}
		var scorer chain.Scorer
		if !prof.IsUnit() {
			scorer = prof
		}
		scored, err := chain.NewScoredCodec(scheme1, scorer)
		if err != nil {
			t.Fatal(err)
		}
		legacy, err := chain.NewScoredCodec(scheme2, nil)
		if err != nil {
			t.Fatal(err)
		}

		mapped := []*big.Int{
			new(big.Int).SetUint64(a1),
			new(big.Int).SetUint64(a2),
			new(big.Int).SetUint64(a3),
		}
		manual := make([]*big.Int, len(mapped))
		for i, m := range mapped {
			manual[i] = new(big.Int).Mul(m, new(big.Int).SetUint64(uint64(w[i])))
		}

		got, err := scored.Seal(mapped, prf.New(keySeed, []byte("perm")))
		if err != nil {
			t.Fatalf("scored seal: %v", err)
		}
		want, err := legacy.Seal(manual, prf.New(keySeed, []byte("perm")))
		if err != nil {
			t.Fatalf("manual seal: %v", err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("weights %v: scored chain %x != manually scaled chain %x", w, got.Bytes(), want.Bytes())
		}
		if got.OrderSum().Cmp(want.OrderSum()) != 0 {
			t.Fatalf("weights %v: order sums differ", w)
		}
		// The inputs must survive untouched (Score may not mutate).
		if mapped[0].Uint64() != a1 || mapped[1].Uint64() != a2 || mapped[2].Uint64() != a3 {
			t.Fatal("sealing mutated the mapped values")
		}
		// Anchor: unit weights through the scored codec are byte-identical
		// to the legacy codec on the raw values.
		if w.IsUnit() {
			anchor, err := legacy.Seal(mapped, prf.New(keySeed, []byte("perm")))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), anchor.Bytes()) {
				t.Fatal("unit weights deviate from the legacy pipeline")
			}
		}
	})
}
