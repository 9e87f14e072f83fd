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

// openT1 returns the encoded commitment t1 an auth blob carries.
func openT1(t *testing.T, sys *System, key *keygen.Key, blob []byte) []byte {
	t.Helper()
	return openPayload(t, key, blob)[:sys.Verifier().Group().ElementLen()]
}

// openPayload decrypts an auth blob the way verify.open does
// (encrypt-then-MAC: AES-256-CTR under prf.Derive(key, "verify/enc"),
// HMAC-SHA256 under "verify/mac") and returns its payload t1 ‖ t2.
func openPayload(t *testing.T, key *keygen.Key, blob []byte) []byte {
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
	return payload
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

// TestAuthMemo: Auth re-sends the blob it made for a (key, ID) while Keygen
// keeps returning that key, without touching the commitment slot. Any
// other key, any other ID and any Keygen miss gets a blob with a new t1.
func TestAuthMemo(t *testing.T) {
	sys := testSystem(t, Params{PlaintextBits: 64})
	c := testClient(t, sys, "auth-memo")
	// Cells are 2θ+1 = 17 values wide: 30 and 31 share cell 1, 34 is in
	// cell 2 (as in TestKeygenMemo).
	p := profile.Profile{ID: 1, Attrs: []int{1, 2, 30, 40}}
	drift := profile.Profile{ID: 1, Attrs: []int{1, 2, 31, 40}}
	moved := profile.Profile{ID: 1, Attrs: []int{1, 2, 34, 40}}
	verified := func(what string, key *keygen.Key, id profile.ID, blob []byte) {
		t.Helper()
		if ok, err := c.Vf(key, id, blob); err != nil || !ok {
			t.Errorf("%s: Vf = %v, %v", what, ok, err)
		}
	}
	// fresh checks that blob carries a t1 that none of the earlier blobs
	// carried.
	seen := map[string]string{}
	fresh := func(what string, key *keygen.Key, id profile.ID, blob []byte) {
		t.Helper()
		verified(what, key, id, blob)
		t1 := string(openT1(t, sys, key, blob))
		if prev, dup := seen[t1]; dup {
			t.Errorf("%s: reuses the t1 of %s", what, prev)
		}
		seen[t1] = what
	}

	key, first := register(t, c, p)
	fresh("join", key, p.ID, first)
	if _, blob := register(t, c, p); !bytes.Equal(blob, first) || c.next != nil || c.filling {
		t.Error("re-register on an armed client with an empty slot: not the kept blob, or a fill started")
	}
	register(t, c, slotProfile(9)) // the second keyed Auth fills the slot
	ch := c.next
	if ch == nil {
		t.Fatal("the second Auth left the slot empty")
	}
	ch <- <-ch // wait for the fill, and put its commitment back

	dkey, blob := register(t, c, drift)
	if dkey != key {
		t.Fatal("the in-cell drift got a new key: pick a profile that stays in its cell")
	}
	if !bytes.Equal(blob, first) {
		t.Error("in-cell drift: the blob is not the one Auth made at join")
	}
	verified("in-cell drift", key, p.ID, blob)
	if c.next != ch || len(ch) != 1 || !c.filling || !c.armed {
		t.Error("in-cell drift: Auth touched the commitment slot")
	}
	blob[0] ^= 0xff // the caller owns what Auth returns
	if again, err := c.Auth(key, p.ID); err != nil || !bytes.Equal(again, first) {
		t.Errorf("a changed copy changed the kept blob: err = %v", err)
	}

	// The same key pointer under another ID, and a key that is Equal but
	// came from another client.
	blob, err := c.Auth(key, 2)
	if err != nil {
		t.Fatal(err)
	}
	fresh("same key, new ID", key, 2, blob)
	other, _ := register(t, testClient(t, sys, "auth-memo-other"), p)
	if !other.Equal(key) {
		t.Fatal("another client derived a different key")
	}
	if blob, err = c.Auth(other, p.ID); err != nil {
		t.Fatal(err)
	}
	fresh("an Equal key from another client", other, p.ID, blob)

	mkey, blob := register(t, c, moved)
	if mkey.Equal(key) {
		t.Fatal("the cross-cell drift kept its key: pick a profile whose cell moves")
	}
	fresh("cross-cell drift", mkey, p.ID, blob)
	if again, err := c.Auth(mkey, p.ID); err != nil || !bytes.Equal(again, blob) {
		t.Errorf("the cross-cell drift's blob was not kept: err = %v", err)
	}

	// A refused Auth stores nothing.
	zero := profile.Profile{ID: 0, Attrs: p.Attrs}
	zkey, err := c.Keygen(zero)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Auth(zkey, 0); err == nil || err.Error() != "verify: zero user ID" {
			t.Fatalf("Auth(id 0) #%d: err = %v", i, err)
		}
	}
	if _, err := c.Auth(new(keygen.Key), p.ID); err == nil {
		t.Fatal("Auth accepted an empty key")
	}
	if c.keys[0].blob != nil {
		t.Error("a refused Auth stored a blob")
	}

	// A failed AuthFrom stores nothing: the slot holds the zero
	// commitment, which AuthFrom refuses.
	q := profile.Profile{ID: 3, Attrs: []int{3, 5, 50, 10}}
	qkey, err := c.Keygen(q)
	if err != nil {
		t.Fatal(err)
	}
	if c.filling {
		<-c.next // let the last fill land before replacing the slot
	}
	bad := make(chan filled, 1)
	bad <- filled{}
	c.next, c.filling = bad, true
	if _, err := c.Auth(qkey, q.ID); err == nil || err.Error() != "verify: zero commitment" {
		t.Fatalf("Auth on the zero commitment: err = %v", err)
	}
	if c.keys[q.ID].blob != nil {
		t.Error("a failed AuthFrom stored a blob")
	}
	if blob, err = c.Auth(qkey, q.ID); err != nil {
		t.Fatal(err)
	}
	fresh("after a failed AuthFrom", qkey, q.ID, blob)
}
