package ope

import (
	"math/big"
	"testing"
)

// FuzzOPE checks the scheme's contract for arbitrary keys, parameters and
// plaintexts: two independently built schemes under one key agree bit for
// bit, every ciphertext lies in [0, 2^N), the order among m1, m2, m3 is
// preserved (strictly for distinct plaintexts, as equality for equal ones),
// and Decrypt inverts Encrypt.
func FuzzOPE(f *testing.F) {
	f.Add([]byte("key"), uint(8), uint(8), uint64(0), uint64(1), uint64(255))
	f.Add([]byte("k2"), uint(4), uint(0), uint64(7), uint64(7), uint64(15))
	f.Add([]byte("longer fuzzing key 0123456789"), uint(24), uint(16),
		uint64(0xdeadbeef), uint64(0xcafe), uint64(1<<24-1))
	f.Fuzz(func(t *testing.T, key []byte, pbitsRaw, extraRaw uint, m1, m2, m3 uint64) {
		if len(key) == 0 {
			key = []byte{0}
		}
		pbits := 1 + pbitsRaw%24     // [1, 24]: deep enough trees, fast iterations
		cbits := pbits + extraRaw%17 // [pbits, pbits+16], includes N == M identity
		p := Params{PlaintextBits: pbits, CiphertextBits: cbits}

		s1, err := NewScheme(key, p)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := NewScheme(key, p)
		if err != nil {
			t.Fatal(err)
		}
		limit := new(big.Int).Lsh(bigOne, cbits)

		mask := uint64(1)<<pbits - 1
		ms := []uint64{m1 & mask, m2 & mask, m3 & mask}
		cs := make([]*big.Int, len(ms))
		for i, mv := range ms {
			m := new(big.Int).SetUint64(mv)
			c, err := s1.Encrypt(m)
			if err != nil {
				t.Fatalf("Encrypt(%v): %v", m, err)
			}
			again, err := s2.Encrypt(m)
			if err != nil {
				t.Fatalf("second scheme Encrypt(%v): %v", m, err)
			}
			if c.Cmp(again) != 0 {
				t.Fatalf("Encrypt(%v) = %v and %v under one key (params %+v key %x)", m, c, again, p, key)
			}
			if c.Sign() < 0 || c.Cmp(limit) >= 0 {
				t.Fatalf("Encrypt(%v) = %v outside [0, 2^%d)", m, c, cbits)
			}
			back, err := s2.Decrypt(c)
			if err != nil {
				t.Fatalf("Decrypt(%v): %v", c, err)
			}
			if back.Cmp(m) != 0 {
				t.Fatalf("roundtrip %v -> %v -> %v", m, c, back)
			}
			cs[i] = c
		}
		for i := range ms {
			for j := i + 1; j < len(ms); j++ {
				want := 0
				if ms[i] < ms[j] {
					want = -1
				} else if ms[i] > ms[j] {
					want = 1
				}
				if got := cs[i].Cmp(cs[j]); got != want {
					t.Fatalf("m%d=%d vs m%d=%d: ciphertexts compare %d, want %d (params %+v key %x)",
						i+1, ms[i], j+1, ms[j], got, want, p, key)
				}
			}
		}
	})
}
