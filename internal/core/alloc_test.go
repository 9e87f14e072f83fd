//go:build !race

// Allocation ceilings for the client's algorithms. Excluded under -race,
// where sync.Pool drops what it is given and the OPE frame is rebuilt on
// every call.
package core

import (
	"math/big"
	"testing"

	"smatch/internal/dataset"
	"smatch/internal/profile"
)

// TestEncAllocs: sealing the 4-attribute test schema at N == M builds the
// OPE scheme and codec from the key and encrypts four values through the
// identity root. Each run seals a different user's InitData, so nothing is
// an exact repeat. A per-key scheme cache with a ciphertext LRU in front of
// the descent cost 49. Each PRF block and the OPE root seed are hashed from
// stack buffers; with a crypto/hmac.New per block the count was 26.
func TestEncAllocs(t *testing.T) {
	sys := testSystem(t, Params{PlaintextBits: 64})
	c := testClient(t, sys, "allocs")
	key, err := c.Keygen(profile.Profile{ID: 1, Attrs: []int{1, 2, 30, 40}})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 50
	mapped := make([][]*big.Int, runs+1) // AllocsPerRun adds a warm-up call
	for i := range mapped {
		p := profile.Profile{ID: profile.ID(i + 1), Attrs: []int{i % 4, i % 8, i % 64, (i * 7) % 64}}
		if mapped[i], err = c.InitData(p); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := c.Enc(key, profile.ID(i+1), mapped[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 18 {
		t.Errorf("Enc allocates %.0f times per call, want <= 18", allocs)
	}
}

// TestInitDataAllocs: mapping the 4-attribute test schema allocates the
// result slice, one PRF stream per attribute and the big.Int arithmetic
// that draws and places each mapped value, about seven objects per
// attribute. The stream's refills hash from stack buffers; with a
// crypto/hmac.New per refill the count was 63.
func TestInitDataAllocs(t *testing.T) {
	sys := testSystem(t, Params{PlaintextBits: 64})
	c := testClient(t, sys, "allocs")
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		p := profile.Profile{ID: profile.ID(i + 1), Attrs: []int{i % 4, i % 8, i % 64, (i * 7) % 64}}
		if _, err := c.InitData(p); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 30 {
		t.Errorf("InitData allocates %.0f times per call, want <= 30", allocs)
	}
}

// TestKeygenHitAllocs: a Keygen whose fuzzy vector has not moved runs no
// OPRF round. On the Weibo schema (17 attributes, a (17, 9) code over
// GF(2^10)) what it allocates is FuzzyVector's quantize and Reed–Solomon
// decode (35 of the 36) and the seed hash (1); the memo lookup and the
// seed comparison allocate nothing.
func TestKeygenHitAllocs(t *testing.T) {
	srv, grp := fixtures(t)
	ds := dataset.Weibo(20)
	sys, err := NewSystem(ds.Schema, ds.Dist, Params{PlaintextBits: 64}, srv.PublicKey(), grp)
	if err != nil {
		t.Fatal(err)
	}
	ev := &countingEval{srv: srv}
	c, err := sys.NewClient(ev, []byte("allocs"))
	if err != nil {
		t.Fatal(err)
	}
	p := ds.Profiles[0]
	if _, err := c.Keygen(p); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := c.Keygen(p); err != nil {
			t.Fatal(err)
		}
	})
	if ev.n != 1 {
		t.Fatalf("%d OPRF evaluations, want 1", ev.n)
	}
	if allocs > 36 {
		t.Errorf("a memo-hit Keygen allocates %.0f times per call, want <= 36", allocs)
	}
}

// TestAuthHitAllocs: an Auth under the key Keygen keeps for the ID, after
// an Auth under it has run, re-sends the kept blob. It allocates only the
// caller's copy: the memo is read before key.Bytes() would copy the key.
func TestAuthHitAllocs(t *testing.T) {
	sys := testSystem(t, Params{PlaintextBits: 64})
	c := testClient(t, sys, "allocs")
	p := profile.Profile{ID: 1, Attrs: []int{1, 2, 30, 40}}
	key, err := c.Keygen(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Auth(key, p.ID); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := c.Auth(key, p.ID); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("a memo-hit Auth allocates %.0f times per call, want <= 1", allocs)
	}
}

// TestVfHitAllocs: a Vf on a triple it accepted before runs no Verify. On
// the default 2048-bit group its 336-byte blob is hashed with the key and
// ID from a stack buffer, so the one allocation is key.Bytes()'s copy.
// Verify itself allocates about 16 times (TestVerifyAllocs).
func TestVfHitAllocs(t *testing.T) {
	srv, _ := fixtures(t)
	sys, err := NewSystem(testSchema(), testDist(), Params{PlaintextBits: 64}, srv.PublicKey(), nil)
	if err != nil {
		t.Fatal(err)
	}
	c := testClient(t, sys, "allocs")
	key, blob := register(t, c, profile.Profile{ID: 9000, Attrs: []int{1, 2, 30, 40}})
	if ok, err := c.Vf(key, 9000, blob); err != nil || !ok {
		t.Fatalf("Vf = %v, %v", ok, err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if ok, err := c.Vf(key, 9000, blob); err != nil || !ok {
			t.Fatalf("Vf = %v, %v", ok, err)
		}
	})
	if allocs > 1 {
		t.Errorf("a memo-hit Vf allocates %.0f times per call, want <= 1", allocs)
	}
}
