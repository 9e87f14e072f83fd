//go:build !race

// Allocation ceiling for Vf. Excluded under -race, where math/big's scratch
// pool does not hold on to what it is given.
package verify

import "testing"

// TestVerifyAllocs: Vf on the default group with a 14-bit ID decodes t1,
// checks its subgroup membership (one scratch allocation) and computes the
// tag t1^ID; the rest of the count is AES-CTR and the decrypted payload.
// The two key derivations, the MAC and the tag hash run over stack
// buffers; with crypto/hmac and sha256.New behind them the count was 40.
func TestVerifyAllocs(t *testing.T) {
	v, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	const id = 9000
	ciph, err := v.Auth(keyAlice, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if ok, err := v.Verify(keyAlice, id, ciph); err != nil || !ok {
			t.Fatalf("Verify = %v, %v", ok, err)
		}
	})
	if allocs > 16 {
		t.Errorf("Verify allocates %.0f times per call, want <= 16", allocs)
	}
}
