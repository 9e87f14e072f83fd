//go:build !race

// Allocation ceiling for Encrypt. Excluded under -race, where sync.Pool
// drops what it is given and the frame is rebuilt on every call.
package ope

import (
	"math/big"
	"testing"
)

// TestEncryptAllocs: at N == M the root is the identity, so Encrypt is a
// range check plus one addition and allocates only its result (the big.Int
// and its words). Every run encrypts a new plaintext; a ciphertext cache in
// front of the descent cost 9 on such misses.
func TestEncryptAllocs(t *testing.T) {
	s := mustScheme(t, "allocs", Params{PlaintextBits: 64, CiphertextBits: 64})
	m, next := new(big.Int), uint64(0x0123456789abcdef)
	allocs := testing.AllocsPerRun(100, func() {
		m.SetUint64(next)
		next++
		s.Encrypt(m)
	})
	if allocs > 2 {
		t.Errorf("Encrypt at (64, 64) allocates %.0f times per call, want <= 2", allocs)
	}
}
