package ope

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func mustScheme(t testing.TB, key string, p Params) *Scheme {
	t.Helper()
	s, err := NewScheme([]byte(key), p)
	if err != nil {
		t.Fatalf("NewScheme: %v", err)
	}
	return s
}

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		p       Params
		wantErr bool
	}{
		{Params{PlaintextBits: 0, CiphertextBits: 8}, true},
		{Params{PlaintextBits: 16, CiphertextBits: 8}, true},
		{Params{PlaintextBits: 8, CiphertextBits: 8}, false},
		{Params{PlaintextBits: 8, CiphertextBits: 24}, false},
	}
	for _, tc := range cases {
		err := tc.p.Validate()
		if (err != nil) != tc.wantErr {
			t.Errorf("Validate(%+v) err=%v, wantErr=%v", tc.p, err, tc.wantErr)
		}
	}
}

func TestNewSchemeRejectsEmptyKey(t *testing.T) {
	if _, err := NewScheme(nil, Params{PlaintextBits: 8, CiphertextBits: 16}); err == nil {
		t.Error("empty key accepted")
	}
}

func TestRangeChecks(t *testing.T) {
	s := mustScheme(t, "k", Params{PlaintextBits: 8, CiphertextBits: 16})
	if _, err := s.Encrypt(big.NewInt(-1)); !errors.Is(err, ErrPlaintextRange) {
		t.Errorf("Encrypt(-1) err = %v", err)
	}
	if _, err := s.Encrypt(big.NewInt(256)); !errors.Is(err, ErrPlaintextRange) {
		t.Errorf("Encrypt(256) err = %v", err)
	}
	if _, err := s.Decrypt(big.NewInt(-1)); !errors.Is(err, ErrCiphertextRange) {
		t.Errorf("Decrypt(-1) err = %v", err)
	}
	if _, err := s.Decrypt(new(big.Int).Lsh(big.NewInt(1), 16)); !errors.Is(err, ErrCiphertextRange) {
		t.Errorf("Decrypt(2^16) err = %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	s1 := mustScheme(t, "key-A", Params{PlaintextBits: 12, CiphertextBits: 24})
	s2 := mustScheme(t, "key-A", Params{PlaintextBits: 12, CiphertextBits: 24})
	for m := uint64(0); m < 200; m += 7 {
		c1, err := s1.EncryptUint64(m)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := s2.EncryptUint64(m)
		if err != nil {
			t.Fatal(err)
		}
		if c1.Cmp(c2) != 0 {
			t.Fatalf("same key, different ciphertexts for m=%d", m)
		}
	}
}

func TestKeySeparation(t *testing.T) {
	s1 := mustScheme(t, "key-A", Params{PlaintextBits: 16, CiphertextBits: 32})
	s2 := mustScheme(t, "key-B", Params{PlaintextBits: 16, CiphertextBits: 32})
	diff := 0
	for m := uint64(0); m < 64; m++ {
		c1, _ := s1.EncryptUint64(m)
		c2, _ := s2.EncryptUint64(m)
		if c1.Cmp(c2) != 0 {
			diff++
		}
	}
	if diff < 32 {
		t.Errorf("only %d/64 ciphertexts differ across keys", diff)
	}
}

func TestOrderPreservationExhaustiveSmall(t *testing.T) {
	// Full domain sweep on an 8-bit domain: strictly increasing ciphertexts.
	s := mustScheme(t, "order", Params{PlaintextBits: 8, CiphertextBits: 20})
	prev := big.NewInt(-1)
	for m := uint64(0); m < 256; m++ {
		c, err := s.EncryptUint64(m)
		if err != nil {
			t.Fatal(err)
		}
		if c.Cmp(prev) <= 0 {
			t.Fatalf("order violated at m=%d: c=%v prev=%v", m, c, prev)
		}
		prev = c
	}
}

func TestOrderPreservationRandomLarge(t *testing.T) {
	// Random plaintexts on a 256-bit domain: sort order must match.
	s := mustScheme(t, "order-large", Params{PlaintextBits: 256, CiphertextBits: 272})
	rng := rand.New(rand.NewSource(11))
	limit := new(big.Int).Lsh(big.NewInt(1), 256)
	type pair struct{ m, c *big.Int }
	pairs := make([]pair, 60)
	for i := range pairs {
		m := new(big.Int).Rand(rng, limit)
		c, err := s.Encrypt(m)
		if err != nil {
			t.Fatal(err)
		}
		pairs[i] = pair{m, c}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].m.Cmp(pairs[j].m) < 0 })
	for i := 1; i < len(pairs); i++ {
		if pairs[i-1].m.Cmp(pairs[i].m) == 0 {
			if pairs[i-1].c.Cmp(pairs[i].c) != 0 {
				t.Fatal("equal plaintexts, different ciphertexts")
			}
			continue
		}
		if pairs[i-1].c.Cmp(pairs[i].c) >= 0 {
			t.Fatalf("order violated between sorted elements %d and %d", i-1, i)
		}
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	configs := []Params{
		{PlaintextBits: 4, CiphertextBits: 4}, // degenerate N == M (identity)
		{PlaintextBits: 8, CiphertextBits: 16},
		{PlaintextBits: 16, CiphertextBits: 32},
		{PlaintextBits: 64, CiphertextBits: 80},
		{PlaintextBits: 128, CiphertextBits: 144},
	}
	rng := rand.New(rand.NewSource(13))
	for _, p := range configs {
		s := mustScheme(t, "roundtrip", p)
		limit := new(big.Int).Lsh(big.NewInt(1), p.PlaintextBits)
		for i := 0; i < 30; i++ {
			m := new(big.Int).Rand(rng, limit)
			c, err := s.Encrypt(m)
			if err != nil {
				t.Fatalf("%+v: encrypt: %v", p, err)
			}
			got, err := s.Decrypt(c)
			if err != nil {
				t.Fatalf("%+v: decrypt: %v", p, err)
			}
			if got.Cmp(m) != 0 {
				t.Fatalf("%+v: round trip %v -> %v -> %v", p, m, c, got)
			}
		}
	}
}

func TestIdentityWhenRangeEqualsDomain(t *testing.T) {
	// With N == M the only order-preserving injection is the identity;
	// the scheme must degrade to it (and the paper's cost runs use this).
	s := mustScheme(t, "id", Params{PlaintextBits: 10, CiphertextBits: 10})
	for m := uint64(0); m < 1024; m += 97 {
		c, err := s.EncryptUint64(m)
		if err != nil {
			t.Fatal(err)
		}
		if c.Uint64() != m {
			t.Fatalf("N==M not identity: %d -> %v", m, c)
		}
	}
}

func TestDecryptNotInImage(t *testing.T) {
	// With a 1-bit domain and 16-bit range, only two ciphertexts are in
	// the image; everything else must return ErrNotInImage.
	s := mustScheme(t, "image", Params{PlaintextBits: 1, CiphertextBits: 16})
	c0, _ := s.EncryptUint64(0)
	c1, _ := s.EncryptUint64(1)
	var misses int
	for v := int64(0); v < 1<<16; v++ {
		c := big.NewInt(v)
		if c.Cmp(c0) == 0 || c.Cmp(c1) == 0 {
			continue
		}
		if _, err := s.Decrypt(c); !errors.Is(err, ErrNotInImage) {
			t.Fatalf("Decrypt(%d) err = %v, want ErrNotInImage", v, err)
		}
		misses++
		if misses > 200 {
			break // enough evidence
		}
	}
}

func TestCiphertextsWithinRange(t *testing.T) {
	s := mustScheme(t, "bounds", Params{PlaintextBits: 8, CiphertextBits: 12})
	max := new(big.Int).Lsh(big.NewInt(1), 12)
	for m := uint64(0); m < 256; m++ {
		c, _ := s.EncryptUint64(m)
		if c.Sign() < 0 || c.Cmp(max) >= 0 {
			t.Fatalf("ciphertext %v out of range for m=%d", c, m)
		}
	}
}

func TestExtremesMapInside(t *testing.T) {
	s := mustScheme(t, "extremes", Params{PlaintextBits: 32, CiphertextBits: 48})
	lo, err := s.EncryptUint64(0)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := s.EncryptUint64((1 << 32) - 1)
	if err != nil {
		t.Fatal(err)
	}
	if lo.Cmp(hi) >= 0 {
		t.Fatal("min plaintext does not map below max plaintext")
	}
	for _, c := range []*big.Int{lo, hi} {
		got, err := s.Decrypt(c)
		if err != nil {
			t.Fatal(err)
		}
		_ = got
	}
}

func TestConcurrentUse(t *testing.T) {
	s := mustScheme(t, "conc", Params{PlaintextBits: 16, CiphertextBits: 32})
	want := make([]*big.Int, 64)
	for m := range want {
		c, err := s.EncryptUint64(uint64(m) * 131)
		if err != nil {
			t.Fatal(err)
		}
		want[m] = c
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := range want {
				c, err := s.EncryptUint64(uint64(m) * 131)
				if err != nil || c.Cmp(want[m]) != 0 {
					t.Errorf("concurrent encrypt diverged at m=%d", m)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestQuickOrderProperty(t *testing.T) {
	s := mustScheme(t, "quick", Params{PlaintextBits: 20, CiphertextBits: 36})
	prop := func(a, b uint32) bool {
		am := uint64(a) & ((1 << 20) - 1)
		bm := uint64(b) & ((1 << 20) - 1)
		ca, err := s.EncryptUint64(am)
		if err != nil {
			return false
		}
		cb, err := s.EncryptUint64(bm)
		if err != nil {
			return false
		}
		switch {
		case am < bm:
			return ca.Cmp(cb) < 0
		case am > bm:
			return ca.Cmp(cb) > 0
		default:
			return ca.Cmp(cb) == 0
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCiphertextSpread(t *testing.T) {
	// Sanity check that ciphertexts actually use the extra range bits:
	// consecutive plaintexts should usually have gaps > 1.
	s := mustScheme(t, "spread", Params{PlaintextBits: 8, CiphertextBits: 24})
	var gaps int
	prev, _ := s.EncryptUint64(0)
	for m := uint64(1); m < 256; m++ {
		c, _ := s.EncryptUint64(m)
		diff := new(big.Int).Sub(c, prev)
		if diff.Cmp(bigOne) > 0 {
			gaps++
		}
		prev = c
	}
	if gaps < 200 {
		t.Errorf("only %d/255 gaps exceed 1; function looks degenerate", gaps)
	}
}

// TestEncryptResultNotAliased guards the pooled frame: what Encrypt and
// Decrypt return must not share memory with the frame the next call reuses,
// so a later call cannot move an earlier result and a caller mutating a
// result cannot move a later one.
func TestEncryptResultNotAliased(t *testing.T) {
	for _, p := range []Params{
		{PlaintextBits: 16, CiphertextBits: 16}, // identity at the root
		{PlaintextBits: 16, CiphertextBits: 32}, // full descent to a leaf
	} {
		s := mustScheme(t, "alias-key", p)
		m := big.NewInt(4242)
		c1, err := s.Encrypt(m)
		if err != nil {
			t.Fatal(err)
		}
		saved := new(big.Int).Set(c1)
		if _, err := s.Encrypt(big.NewInt(17)); err != nil {
			t.Fatal(err)
		}
		if c1.Cmp(saved) != 0 {
			t.Fatalf("%+v: a later Encrypt moved an earlier result: %v, want %v", p, c1, saved)
		}
		c1.SetInt64(-999) // clobber the returned value
		c2, err := s.Encrypt(m)
		if err != nil {
			t.Fatal(err)
		}
		if c2.Cmp(saved) != 0 {
			t.Fatalf("%+v: ciphertext moved by caller mutation: %v, want %v", p, c2, saved)
		}
		m1, err := s.Decrypt(c2)
		if err != nil {
			t.Fatal(err)
		}
		m1.SetInt64(-1)
		if m2, err := s.Decrypt(c2); err != nil || m2.Cmp(m) != 0 {
			t.Fatalf("%+v: Decrypt after caller mutation = %v, %v; want %v", p, m2, err, m)
		}
	}
}

// benchEncrypt times Encrypt at one width over 2^16 distinct plaintexts
// drawn up front (seed 17), so every call runs the full descent.
func benchEncrypt(b *testing.B, bits uint) {
	params := Params{PlaintextBits: bits, CiphertextBits: bits + 16}
	rng := rand.New(rand.NewSource(17))
	limit := new(big.Int).Lsh(big.NewInt(1), bits)
	pts := make([]*big.Int, 1<<16)
	for i := range pts {
		pts[i] = new(big.Int).Rand(rng, limit)
	}
	s := mustScheme(b, "bench", params)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Encrypt(pts[i%len(pts)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncrypt64(b *testing.B)   { benchEncrypt(b, 64) }
func BenchmarkEncrypt256(b *testing.B)  { benchEncrypt(b, 256) }
func BenchmarkEncrypt1024(b *testing.B) { benchEncrypt(b, 1024) }
func BenchmarkEncrypt2048(b *testing.B) { benchEncrypt(b, 2048) }

func TestCiphertextQuantileLeakageAcrossKeys(t *testing.T) {
	// OPE fundamentally leaks approximate magnitude: a plaintext at
	// quantile q of the domain encrypts near quantile q of the range
	// under EVERY key, because the hypergeometric splits concentrate.
	// This test pins that (well-known) property — it is exactly why the
	// paper cannot use OPE on raw low-entropy attributes and why the
	// entropy-increase mapping must spread values across the whole
	// message space first.
	const keys = 200
	params := Params{PlaintextBits: 16, CiphertextBits: 24}
	m := big.NewInt(12345) // quantile 12345/65536 ≈ 0.188 -> octant 1
	octant := new(big.Int).Lsh(bigOne, 21)
	inExpected := 0
	for i := 0; i < keys; i++ {
		s := mustScheme(t, fmt.Sprintf("key-%d", i), params)
		c, err := s.Encrypt(m)
		if err != nil {
			t.Fatal(err)
		}
		if new(big.Int).Div(c, octant).Int64() == 1 {
			inExpected++
		}
	}
	if inExpected < keys*9/10 {
		t.Errorf("only %d/%d ciphertexts near the plaintext quantile; the OPE construction changed character", inExpected, keys)
	}
}
