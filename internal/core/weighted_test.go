package core

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"testing"

	"smatch/internal/chain"
	"smatch/internal/match"
	"smatch/internal/ope"
	"smatch/internal/prf"
	"smatch/internal/profile"
	"smatch/internal/scoring"
)

// TestUnitWeightsByteIdentical is the anchor equivalence test: a system
// built with nil weights and one built with an explicit all-ones vector
// must behave byte-for-byte like the pre-scoring pipeline — same derived
// keys, same key hashes, same encrypted chains. Everything the server
// stores or replicates derives from these bytes (plus the randomized auth
// blob), so this pins wire/store/WAL compatibility for unweighted
// deployments.
func TestUnitWeightsByteIdentical(t *testing.T) {
	p := profile.Profile{ID: 7, Attrs: []int{1, 2, 30, 40}}
	legacy := testSystem(t, Params{PlaintextBits: 64, Theta: 4})
	allOnes := testSystem(t, Params{PlaintextBits: 64, Theta: 4, Weights: scoring.Weights{1, 1, 1, 1}})

	cl := testClient(t, legacy, "device-anchor")
	ca := testClient(t, allOnes, "device-anchor")

	keyL, err := cl.Keygen(p)
	if err != nil {
		t.Fatal(err)
	}
	keyA, err := ca.Keygen(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(keyL.Bytes(), keyA.Bytes()) {
		t.Fatal("all-ones weights changed key derivation")
	}
	if !bytes.Equal(keyL.Hash(), keyA.Hash()) {
		t.Fatal("all-ones weights changed the key hash (bucket assignment)")
	}

	mappedL, err := cl.InitData(p)
	if err != nil {
		t.Fatal(err)
	}
	mappedA, err := ca.InitData(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mappedL {
		if mappedL[i].Cmp(mappedA[i]) != 0 {
			t.Fatalf("all-ones weights changed the entropy mapping at attribute %d", i)
		}
	}

	chL, err := cl.Enc(keyL, p.ID, mappedL)
	if err != nil {
		t.Fatal(err)
	}
	chA, err := ca.Enc(keyA, p.ID, mappedA)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(chL.Bytes(), chA.Bytes()) {
		t.Fatal("all-ones weights changed the encrypted chain bytes")
	}
	if chL.CtBits != chA.CtBits {
		t.Fatalf("all-ones weights widened the ciphertext: %d vs %d bits", chA.CtBits, chL.CtBits)
	}
	if eff, err := allOnes.Params().EffectiveOPE(); err != nil || eff.PlaintextBits != 64 {
		t.Errorf("all-ones EffectiveOPE = (%v, %v), want unwidened 64", eff, err)
	}
}

// TestWeightedEqualsManualScaling is the core-level differential: sealing
// through a weighted system must equal scaling the mapped values by hand
// and sealing them through a bare unit codec under the same key, OPE
// parameters and permutation stream.
func TestWeightedEqualsManualScaling(t *testing.T) {
	w := scoring.Weights{3, 1, 7, 2}
	sys := testSystem(t, Params{PlaintextBits: 64, Theta: 4, Weights: w})
	p := profile.Profile{ID: 9, Attrs: []int{1, 2, 30, 40}}
	secret := "device-diff"
	c := testClient(t, sys, secret)

	key, err := c.Keygen(p)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := c.InitData(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Enc(key, p.ID, mapped)
	if err != nil {
		t.Fatal(err)
	}

	// Manual path: scale, then the legacy codec over the same widened OPE
	// scheme and the same perm coins Enc derives internally.
	scaled := make([]*big.Int, len(mapped))
	for i, m := range mapped {
		scaled[i] = new(big.Int).Mul(m, big.NewInt(int64(w[i])))
	}
	scheme, err := ope.NewScheme(key.Bytes(), sys.opeParams)
	if err != nil {
		t.Fatal(err)
	}
	codec, err := chain.NewScoredCodec(scheme, nil)
	if err != nil {
		t.Fatal(err)
	}
	var label [8]byte
	copy(label[:4], "perm")
	binary.BigEndian.PutUint32(label[4:8], uint32(p.ID))
	want, err := codec.Seal(scaled, prf.New([]byte(secret), label[:]))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("weighted Enc differs from manual scaling through the legacy codec")
	}
	if got.CtBits != 64+w.ExtraBits() {
		t.Errorf("weighted chain CtBits = %d, want 64+%d", got.CtBits, w.ExtraBits())
	}
}

// TestWeightedKeysDontCollide: deployments with different priority vectors
// must derive unrelated keys from the same profile and device, so their
// chains can never meet in a server bucket and be compared under
// mismatched scales.
func TestWeightedKeysDontCollide(t *testing.T) {
	p := profile.Profile{ID: 3, Attrs: []int{1, 2, 30, 40}}
	keyFor := func(w scoring.Weights) []byte {
		sys := testSystem(t, Params{PlaintextBits: 64, Theta: 4, Weights: w})
		c := testClient(t, sys, "device-bind")
		key, err := c.Keygen(p)
		if err != nil {
			t.Fatal(err)
		}
		return key.Hash()
	}
	unit := keyFor(nil)
	w1 := keyFor(scoring.Weights{2, 1, 1, 1})
	w2 := keyFor(scoring.Weights{1, 2, 1, 1})
	if bytes.Equal(unit, w1) {
		t.Error("weighted deployment shares key hashes with the unweighted one")
	}
	if bytes.Equal(w1, w2) {
		t.Error("different weight vectors share key hashes")
	}
	if !bytes.Equal(w1, keyFor(scoring.Weights{2, 1, 1, 1})) {
		t.Error("same weight vector is not deterministic")
	}
}

// TestWeightedRankingFlips builds a bucket where the nearest neighbor
// under unit weights differs from the nearest under a priority vector:
// the querier's small difference on the heavily weighted attribute must
// dominate a larger difference on an unweighted one.
func TestWeightedRankingFlips(t *testing.T) {
	schema := profile.Schema{Attrs: []profile.AttributeSpec{
		{Name: "a0", NumValues: 64}, {Name: "a1", NumValues: 64},
		{Name: "a2", NumValues: 64}, {Name: "a3", NumValues: 64},
	}}
	dist := [][]float64{uniform(64), uniform(64), uniform(64), uniform(64)}
	srv, grp := fixtures(t)

	// theta 4 -> cell width 9: attrs 9..17 share a cell, so all three
	// users derive one key. q differs from u1 by 8 on a2 and from u2 by 2
	// on a3. With uniform 64-value distributions every value owns a
	// ~2^58-string sub-range, so unweighted order-sum noise from
	// same-value attributes stays within ±2^58 per attribute: u2 (≤5·2^58)
	// ranks strictly closer than u1 (≥5·2^58, equality measure-zero).
	// Weight 1024 on a3 pushes u2's difference to ≥(1024-3)·2^58, far past
	// u1's ≤11·2^58: the ranking flips.
	q := profile.Profile{ID: 1, Attrs: []int{9, 9, 9, 9}}
	u1 := profile.Profile{ID: 2, Attrs: []int{9, 9, 17, 9}}
	u2 := profile.Profile{ID: 3, Attrs: []int{9, 9, 9, 11}}

	nearestUnder := func(w scoring.Weights) profile.ID {
		t.Helper()
		sys, err := NewSystem(schema, dist, Params{PlaintextBits: 64, Theta: 4, Weights: w}, srv.PublicKey(), grp)
		if err != nil {
			t.Fatal(err)
		}
		store := match.NewServer()
		for i, p := range []profile.Profile{q, u1, u2} {
			c := testClient(t, sys, "rank-device-"+string(rune('a'+i)))
			entry, _, err := c.PrepareUpload(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Upload(entry); err != nil {
				t.Fatal(err)
			}
		}
		results, err := store.Match(q.ID, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 1 {
			t.Fatalf("Match returned %d results, want 1 (users not in one bucket?)", len(results))
		}
		return results[0].ID
	}

	if got := nearestUnder(nil); got != u2.ID {
		t.Errorf("unweighted nearest = user %d, want %d", got, u2.ID)
	}
	if got := nearestUnder(scoring.Weights{1, 1, 1, 1024}); got != u1.ID {
		t.Errorf("weighted nearest = user %d, want %d", got, u1.ID)
	}

	// The flip agrees with the plaintext ground truth.
	du1Unit, _ := profile.WeightedDistance(q, u1, nil)
	du2Unit, _ := profile.WeightedDistance(q, u2, nil)
	du1W, _ := profile.WeightedDistance(q, u1, []uint32{1, 1, 1, 1024})
	du2W, _ := profile.WeightedDistance(q, u2, []uint32{1, 1, 1, 1024})
	if !(du2Unit < du1Unit && du1W < du2W) {
		t.Fatalf("ground truth does not flip: unit (%d,%d), weighted (%d,%d)", du1Unit, du2Unit, du1W, du2W)
	}
}

// TestWeightedEndToEnd: the full weighted pipeline — keygen, upload,
// match, verify — works and verification still authenticates matches.
func TestWeightedEndToEnd(t *testing.T) {
	sys := testSystem(t, Params{PlaintextBits: 64, Theta: 4, Weights: scoring.Weights{4, 2, 1, 1}})
	server := match.NewServer()
	alice := profile.Profile{ID: 1, Attrs: []int{1, 2, 30, 40}}
	bob := profile.Profile{ID: 2, Attrs: []int{1, 2, 31, 41}}
	for i, p := range []profile.Profile{alice, bob} {
		c := testClient(t, sys, "w-device-"+string(rune('a'+i)))
		entry, _, err := c.PrepareUpload(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := server.Upload(entry); err != nil {
			t.Fatal(err)
		}
	}
	results, err := server.Match(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].ID != 1 {
		t.Fatalf("bob's weighted results = %v, want only alice", results)
	}
	bobClient := testClient(t, sys, "w-device-b")
	key, err := bobClient.Keygen(bob)
	if err != nil {
		t.Fatal(err)
	}
	verified, rejected, err := bobClient.VerifyResults(key, results)
	if err != nil {
		t.Fatal(err)
	}
	if len(verified) != 1 || rejected != 0 {
		t.Fatalf("weighted verify: verified=%d rejected=%d, want 1/0", len(verified), rejected)
	}
}

// TestWeightedParamsValidation: weight errors surface at system
// construction.
func TestWeightedParamsValidation(t *testing.T) {
	srv, grp := fixtures(t)
	bad := []scoring.Weights{
		{1, 2},                           // wrong width for 4 attrs
		{0, 1, 1, 1},                     // zero priority
		{scoring.MaxWeight + 1, 1, 1, 1}, // over bound
	}
	for _, w := range bad {
		if _, err := NewSystem(testSchema(), testDist(), Params{PlaintextBits: 64, Theta: 4, Weights: w}, srv.PublicKey(), grp); err == nil {
			t.Errorf("weights %v accepted", w)
		}
	}
}
