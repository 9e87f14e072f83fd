package core

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"smatch/internal/keygen"
	"smatch/internal/prf"
	"smatch/internal/profile"
)

// vfMemoLen is the number of triples c's Vf memo holds.
func vfMemoLen(c *Client) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.vfs)
}

// sealPayload encrypts payload under key the way verify.seal does, with
// the given IV, so a test can forge blobs that carry a valid MAC.
func sealPayload(t *testing.T, key *keygen.Key, iv, payload []byte) []byte {
	t.Helper()
	kb := key.Bytes()
	encKey := prf.Derive(kb, []byte("verify/enc"))
	macKey := prf.Derive(kb, []byte("verify/mac"))
	block, err := aes.NewCipher(encKey[:])
	if err != nil {
		t.Fatal(err)
	}
	out := append(append([]byte(nil), iv...), make([]byte, len(payload))...)
	cipher.NewCTR(block, iv).XORKeyStream(out[len(iv):], payload)
	mac := hmac.New(sha256.New, macKey[:])
	mac.Write(out)
	return mac.Sum(out)
}

// vfCase is one Vf input.
type vfCase struct {
	what string
	key  *keygen.Key
	id   profile.ID
	blob []byte
}

// vfCorpus is a seeded set of Vf inputs: blobs Vf accepts, and every way
// TestMaliciousServerDetected and the verify package's rejection suite
// break one (forged, spoofed, short and bit-flipped blobs, ID 0, another
// key), plus accepted blobs presented again under another ID, under
// another key and truncated.
func vfCorpus(t *testing.T, sys *System) []vfCase {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	v := sys.Verifier()
	// Cells are 2θ+1 = 17 values wide: a and b share no cell.
	a := profile.Profile{ID: 1, Attrs: []int{1, 2, 30, 40}}
	b := profile.Profile{ID: 4, Attrs: []int{3, 7, 60, 5}}
	keyA, err := testClient(t, sys, "corpus-a").Keygen(a)
	if err != nil {
		t.Fatal(err)
	}
	keyB, err := testClient(t, sys, "corpus-b").Keygen(b)
	if err != nil {
		t.Fatal(err)
	}
	sameA, err := testClient(t, sys, "corpus-a2").Keygen(a) // Equal to keyA, another pointer
	if err != nil {
		t.Fatal(err)
	}
	if keyA.Equal(keyB) || !keyA.Equal(sameA) || keyA == sameA {
		t.Fatal("corpus keys: want keyA == sameA != keyB, sameA another pointer")
	}
	auth := func(key *keygen.Key, id profile.ID) []byte {
		cm, err := v.Commit(rng)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := v.AuthFrom(key.Bytes(), id, cm, rng)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	flip := func(blob []byte, i int) []byte {
		out := append([]byte(nil), blob...)
		out[i] ^= 1 << uint(rng.Intn(8))
		return out
	}
	random := func(n int) []byte {
		out := make([]byte, n)
		rng.Read(out)
		return out
	}

	a1, a2, a3, b4 := auth(keyA, 1), auth(keyA, 2), auth(keyA, 3), auth(keyB, 4)
	n, elemLen := v.AuthLen(), v.Group().ElementLen()
	payload := openPayload(t, keyA, a1) // t1 ‖ t2 for ID 1
	t1 := payload[:elemLen]
	cases := []vfCase{
		{"accepted a1", keyA, 1, a1},
		{"accepted a2", keyA, 2, a2},
		{"accepted a3", keyA, 3, a3},
		{"accepted b4", keyB, 4, b4},
		{"a1 under an Equal key", sameA, 1, a1},
		{"a1 resealed with a new IV", keyA, 1, sealPayload(t, keyA, random(aes.BlockSize), payload)},

		{"zero blob, invented ID", keyA, 99, make([]byte, n)},
		{"random blob", keyA, 1, random(n)},
		{"a1 under another ID", keyA, 77, a1},
		{"a1 under an accepted ID", keyA, 2, a1},
		{"a1 under ID 0", keyA, 0, a1},
		{"a1 under another key", keyB, 1, a1},
		{"b4 under another key", keyA, 4, b4},
		{"a1 truncated to 10", keyA, 1, a1[:10]},
		{"a1 truncated by 1", keyA, 1, a1[:n-1]},
		{"a1 extended by 1", keyA, 1, append(append([]byte(nil), a1...), 0)},
		{"empty blob", keyA, 1, nil},
		{"a1, IV bit flipped", keyA, 1, flip(a1, rng.Intn(aes.BlockSize))},
		{"a1, t1 bit flipped", keyA, 1, flip(a1, aes.BlockSize+rng.Intn(elemLen))},
		{"a1, t2 bit flipped", keyA, 1, flip(a1, aes.BlockSize+elemLen+rng.Intn(sha256.Size))},
		{"a1, MAC bit flipped", keyA, 1, flip(a1, n-1-rng.Intn(sha256.Size))},
		{"key holder's forgery: t1, random t2", keyA, 1,
			sealPayload(t, keyA, random(aes.BlockSize), append(append([]byte(nil), t1...), random(sha256.Size)...))},
		{"key holder's forgery: zero t1", keyA, 1,
			sealPayload(t, keyA, random(aes.BlockSize), append(make([]byte, elemLen), payload[elemLen:]...))},
		{"key holder's forgery: a1's payload for ID 2", keyA, 2, sealPayload(t, keyA, random(aes.BlockSize), payload)},
		{"nil key", nil, 1, a1},
		{"empty key", new(keygen.Key), 1, a1},
	}
	return cases
}

// vfWant is what a fresh Verify answers on one input, and so what Vf must.
type vfWant struct {
	ok  bool
	err string
}

// verifyFresh runs the System's Verify on k with no memo in front.
func verifyFresh(sys *System, k vfCase) vfWant {
	ok, err := sys.Verifier().Verify(k.key.Bytes(), k.id, k.blob)
	return vfWant{ok, fmt.Sprint(err)}
}

// TestVfMemo: the memoized Vf answers every corpus input exactly as a
// fresh Verify does, on a cold memo and on a warm one, from one goroutine
// and from several. Only acceptances enter the memo, so no rejection
// grows it and a warm memo turns none of them into an acceptance. The
// memo stays within vfMemoCap and Vf still verifies once it has been
// replaced.
func TestVfMemo(t *testing.T) {
	sys := testSystem(t, Params{PlaintextBits: 64, Theta: 8})
	cases := vfCorpus(t, sys)
	want := make([]vfWant, len(cases))
	accepted := map[string]bool{} // the distinct accepted triples
	digests := map[[sha256.Size]byte]bool{}
	rejected := 0
	for i, k := range cases {
		want[i] = verifyFresh(sys, k)
		if want[i].ok {
			accepted[fmt.Sprintf("%x %d %x", k.key.Bytes(), k.id, k.blob)] = true
			digests[vfDigest(k.key.Bytes(), k.id, k.blob)] = true
		} else {
			rejected++
		}
	}
	if len(accepted) != 5 || rejected != 20 {
		t.Fatalf("corpus: %d distinct accepted triples and %d rejections, want 5 and 20", len(accepted), rejected)
	}

	// vf checks one call against Verify.
	vf := func(t *testing.T, c *Client, pass string, i int) {
		k := cases[i]
		ok, err := c.Vf(k.key, k.id, k.blob)
		if got := (vfWant{ok, fmt.Sprint(err)}); got != want[i] {
			t.Errorf("%s: %s: Vf = %v, %s; Verify = %v, %s", pass, k.what, got.ok, got.err, want[i].ok, want[i].err)
		}
	}
	// check also holds a rejection to leaving the memo as it was.
	check := func(t *testing.T, c *Client, pass string, i int) {
		before := vfMemoLen(c)
		vf(t, c, pass, i)
		if !want[i].ok && vfMemoLen(c) != before {
			t.Errorf("%s: %s: a rejection changed the memo", pass, cases[i].what)
		}
	}
	// holdsAccepted checks that c's memo is exactly the accepted triples.
	holdsAccepted := func(t *testing.T, c *Client, pass string) {
		c.mu.Lock()
		defer c.mu.Unlock()
		for d := range c.vfs {
			if !digests[d] {
				t.Errorf("%s: the memo holds a triple Verify rejects", pass)
			}
		}
		if len(c.vfs) != len(accepted) {
			t.Errorf("%s: the memo holds %d triples, want the %d accepted", pass, len(c.vfs), len(accepted))
		}
	}

	t.Run("cold then warm", func(t *testing.T) {
		c := testClient(t, sys, "vf-memo")
		rng := rand.New(rand.NewSource(1))
		for _, pass := range []string{"cold", "warm"} {
			for _, i := range rng.Perm(len(cases)) {
				check(t, c, pass, i)
			}
			holdsAccepted(t, c, pass)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		c := testClient(t, sys, "vf-memo-concurrent")
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for pass := 0; pass < 3; pass++ {
					for _, i := range rng.Perm(len(cases)) {
						vf(t, c, fmt.Sprintf("goroutine %d pass %d", seed, pass), i)
					}
				}
			}(int64(g))
		}
		wg.Wait()
		holdsAccepted(t, c, "concurrent")
	})

	t.Run("cap", func(t *testing.T) {
		// One commitment under many IDs gives distinct accepted triples
		// for the cost of a tag each.
		c := testClient(t, sys, "vf-memo-cap")
		v := sys.Verifier()
		key := cases[0].key
		cm, err := v.Commit(nil)
		if err != nil {
			t.Fatal(err)
		}
		var first []byte
		for id := profile.ID(1); id <= vfMemoCap+100; id++ {
			blob, err := v.AuthFrom(key.Bytes(), id, cm, nil)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = blob
			}
			if ok, err := c.Vf(key, id, blob); !ok || err != nil {
				t.Fatalf("ID %d: Vf = %v, %v", id, ok, err)
			}
			if n := vfMemoLen(c); n > vfMemoCap {
				t.Fatalf("ID %d: the memo holds %d triples, cap %d", id, n, vfMemoCap)
			}
		}
		if ok, err := c.Vf(key, 1, first); !ok || err != nil {
			t.Errorf("past the cap: Vf(ID 1) = %v, %v", ok, err)
		}
		if ok, err := c.Vf(key, 2, first); ok || err != nil {
			t.Errorf("past the cap: ID 1's blob under ID 2: Vf = %v, %v", ok, err)
		}
		for i := range cases {
			check(t, c, "past the cap", i)
		}
	})
}

// TestNilKeyErrors: a nil *keygen.Key has no bytes and no hash, so Vf,
// Auth and Enc report the empty-key error instead of panicking, and a
// nil-key Vf adds nothing to the memo.
func TestNilKeyErrors(t *testing.T) {
	sys := testSystem(t, Params{PlaintextBits: 64})
	c := testClient(t, sys, "nil-key")
	p := profile.Profile{ID: 1, Attrs: []int{1, 2, 30, 40}}
	var nilKey *keygen.Key
	if nilKey.Bytes() != nil || nilKey.Hash() != nil {
		t.Error("a nil key has bytes or a hash")
	}
	key, blob := register(t, c, p)
	if ok, err := c.Vf(key, p.ID, blob); !ok || err != nil {
		t.Fatalf("Vf = %v, %v", ok, err)
	}
	n := vfMemoLen(c)
	if ok, err := c.Vf(nil, p.ID, blob); ok || err == nil {
		t.Errorf("Vf(nil key) = %v, %v", ok, err)
	}
	if vfMemoLen(c) != n {
		t.Error("a nil-key Vf grew the memo")
	}
	if _, err := c.Auth(nil, p.ID); err == nil {
		t.Error("Auth accepted a nil key")
	}
	mapped, err := c.InitData(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Enc(nil, p.ID, mapped); err == nil {
		t.Error("Enc accepted a nil key")
	}
}
