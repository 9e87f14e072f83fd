package core

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"sync"
	"testing"

	"smatch/internal/keygen"
	"smatch/internal/prf"
	"smatch/internal/profile"
)

// openT1 decrypts an auth blob the way verify.open does (encrypt-then-MAC:
// AES-256-CTR under prf.Derive(key, "verify/enc"), HMAC-SHA256 under
// "verify/mac") and returns the encoded commitment t1 it carries.
func openT1(t *testing.T, sys *System, key *keygen.Key, blob []byte) []byte {
	t.Helper()
	kb := key.Bytes()
	body, tag := blob[:len(blob)-sha256.Size], blob[len(blob)-sha256.Size:]
	macKey := prf.Derive(kb, []byte("verify/mac"))
	mac := hmac.New(sha256.New, macKey[:])
	mac.Write(body)
	if !hmac.Equal(mac.Sum(nil), tag) {
		t.Fatal("auth blob fails its MAC under its own key")
	}
	encKey := prf.Derive(kb, []byte("verify/enc"))
	block, err := aes.NewCipher(encKey[:])
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, len(body)-aes.BlockSize)
	cipher.NewCTR(block, body[:aes.BlockSize]).XORKeyStream(payload, body[aes.BlockSize:])
	return payload[:sys.Verifier().Group().ElementLen()]
}

func slotProfile(i int) profile.Profile {
	return profile.Profile{ID: profile.ID(i + 1), Attrs: []int{i % 4, i % 8, i % 64, (i * 7) % 64}}
}

// register runs Keygen then Auth for p on c.
func register(t *testing.T, c *Client, p profile.Profile) (*keygen.Key, []byte) {
	t.Helper()
	key, err := c.Keygen(p)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := c.Auth(key, p.ID)
	if err != nil {
		t.Fatal(err)
	}
	return key, blob
}

// TestCommitmentSlotUsedOnce: concurrent registrations on one device each
// get their own commitment. A t1 seen twice would let a holder of both
// keys link the two registrations.
func TestCommitmentSlotUsedOnce(t *testing.T) {
	sys := testSystem(t, Params{PlaintextBits: 64})
	c := testClient(t, sys, "slot-used-once")
	const workers, cycles = 8, 25
	type reg struct {
		key  *keygen.Key
		id   profile.ID
		blob []byte
	}
	regs := make([]reg, workers*cycles)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < cycles; k++ {
				i := w*cycles + k
				p := slotProfile(i)
				key, err := c.Keygen(p)
				if err != nil {
					t.Error(err)
					return
				}
				blob, err := c.Auth(key, p.ID)
				if err != nil {
					t.Error(err)
					return
				}
				regs[i] = reg{key, p.ID, blob}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	seen := make(map[string]int, len(regs))
	for i, r := range regs {
		t1 := string(openT1(t, sys, r.key, r.blob))
		if j, dup := seen[t1]; dup {
			t.Errorf("registrations %d and %d share t1", j, i)
		}
		seen[t1] = i
		ok, err := c.Vf(r.key, r.id, r.blob)
		if err != nil || !ok {
			t.Errorf("registration %d: Vf = %v, %v", i, ok, err)
		}
	}
}

// TestCommitmentSlotOneShot: a device that registers once commits inline
// and never starts a fill.
func TestCommitmentSlotOneShot(t *testing.T) {
	sys := testSystem(t, Params{PlaintextBits: 64})
	c := testClient(t, sys, "slot-one-shot")
	p := slotProfile(0)
	key, err := c.Keygen(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.next != nil || c.filling {
		t.Fatal("Keygen on a fresh client started a fill")
	}
	blob, err := c.Auth(key, p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if c.next != nil || c.filling {
		t.Error("Auth on a fresh client left a fill behind")
	}
	if ok, err := c.Vf(key, p.ID, blob); err != nil || !ok {
		t.Errorf("Vf = %v, %v", ok, err)
	}
}

// TestCommitmentSlotArmed: after one Auth, Keygen leaves the slot alone
// and the next Auth fills it as it returns. The Auth after that takes the
// ready commitment rather than committing inline.
func TestCommitmentSlotArmed(t *testing.T) {
	sys := testSystem(t, Params{PlaintextBits: 64})
	c := testClient(t, sys, "slot-armed")
	register(t, c, slotProfile(0))
	p := slotProfile(1)
	key, err := c.Keygen(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.next != nil || c.filling {
		t.Fatal("Keygen on an armed client started a fill")
	}
	blob, err := c.Auth(key, p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if c.next == nil || !c.filling {
		t.Fatal("Auth on an armed client left the slot empty")
	}
	if ok, err := c.Vf(key, p.ID, blob); err != nil || !ok {
		t.Errorf("Vf = %v, %v", ok, err)
	}

	p = slotProfile(2)
	if key, err = c.Keygen(p); err != nil {
		t.Fatal(err)
	}
	ch := c.next
	f := <-ch // wait for the fill, and put its commitment back
	ch <- f
	if blob, err = c.Auth(key, p.ID); err != nil {
		t.Fatal(err)
	}
	if len(ch) != 0 {
		t.Fatal("the third Auth did not take the slot's commitment")
	}
	ref, err := sys.Verifier().AuthFrom(key.Bytes(), p.ID, f.c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(openT1(t, sys, key, blob), openT1(t, sys, key, ref)) {
		t.Error("the third Auth committed inline instead of using the ready commitment")
	}
	if ok, err := c.Vf(key, p.ID, blob); err != nil || !ok {
		t.Errorf("Vf = %v, %v", ok, err)
	}
}

// TestCommitmentSlotGuards: Auth refuses an empty key and ID 0 with the
// verifier's errors, and a refused Auth leaves the ready commitment for the
// next one.
func TestCommitmentSlotGuards(t *testing.T) {
	sys := testSystem(t, Params{PlaintextBits: 64})
	c := testClient(t, sys, "slot-guards")
	register(t, c, slotProfile(0))
	register(t, c, slotProfile(1)) // the second Auth fills the slot
	p := slotProfile(2)
	key, err := c.Keygen(p)
	if err != nil {
		t.Fatal(err)
	}
	ch := c.next
	if ch == nil {
		t.Fatal("the second Auth left the slot empty")
	}
	ch <- <-ch // wait for the fill, and put its commitment back
	for _, tc := range []struct {
		key  *keygen.Key
		id   profile.ID
		want string
	}{
		{new(keygen.Key), p.ID, "verify: empty profile key"},
		{key, 0, "verify: zero user ID"},
	} {
		if _, err := c.Auth(tc.key, tc.id); err == nil || err.Error() != tc.want {
			t.Errorf("Auth(id %d): err = %v, want %q", tc.id, err, tc.want)
		}
	}
	if c.next != ch || len(ch) != 1 {
		t.Fatal("a refused Auth consumed the slot")
	}
	blob, err := c.Auth(key, p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if c.next == ch || len(ch) != 0 {
		t.Error("the next Auth did not take the slot's commitment")
	}
	if ok, err := c.Vf(key, p.ID, blob); err != nil || !ok {
		t.Errorf("Vf = %v, %v", ok, err)
	}
}
