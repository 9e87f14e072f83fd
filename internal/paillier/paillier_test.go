package paillier

import (
	"errors"
	"math/big"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

var (
	testKeyOnce sync.Once
	testKeyVal  *PrivateKey
)

func testKey(t testing.TB) *PrivateKey {
	t.Helper()
	testKeyOnce.Do(func() {
		k, err := GenerateKey(1024, nil)
		if err != nil {
			panic(err)
		}
		testKeyVal = k
	})
	return testKeyVal
}

func TestGenerateKeyValidation(t *testing.T) {
	if _, err := GenerateKey(64, nil); err == nil {
		t.Error("64-bit key accepted")
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	k := testKey(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		m := new(big.Int).Rand(rng, k.N)
		c, err := k.Encrypt(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := k.Decrypt(c)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(m) != 0 {
			t.Fatalf("round trip %v -> %v", m, got)
		}
	}
}

func TestEncryptBoundaries(t *testing.T) {
	k := testKey(t)
	// m = 0 and m = N-1 are valid; m = N and negatives are not.
	for _, m := range []*big.Int{big.NewInt(0), new(big.Int).Sub(k.N, big.NewInt(1))} {
		c, err := k.Encrypt(m, nil)
		if err != nil {
			t.Fatalf("Encrypt(%v): %v", m, err)
		}
		got, err := k.Decrypt(c)
		if err != nil || got.Cmp(m) != 0 {
			t.Fatalf("boundary round trip failed for %v", m)
		}
	}
	for _, m := range []*big.Int{nil, big.NewInt(-1), k.N} {
		if _, err := k.Encrypt(m, nil); !errors.Is(err, ErrMessageRange) {
			t.Errorf("Encrypt(%v) err = %v, want ErrMessageRange", m, err)
		}
	}
}

func TestProbabilisticEncryption(t *testing.T) {
	k := testKey(t)
	m := big.NewInt(42)
	c1, _ := k.Encrypt(m, nil)
	c2, _ := k.Encrypt(m, nil)
	if c1.Cmp(c2) == 0 {
		t.Error("two encryptions of the same plaintext are identical")
	}
}

func TestAdditiveHomomorphism(t *testing.T) {
	k := testKey(t)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		a := new(big.Int).Rand(rng, big.NewInt(1<<30))
		b := new(big.Int).Rand(rng, big.NewInt(1<<30))
		ca, _ := k.Encrypt(a, nil)
		cb, _ := k.Encrypt(b, nil)
		sum, err := k.AddCipher(ca, cb)
		if err != nil {
			t.Fatal(err)
		}
		got, err := k.Decrypt(sum)
		if err != nil {
			t.Fatal(err)
		}
		want := new(big.Int).Add(a, b)
		if got.Cmp(want) != 0 {
			t.Fatalf("Dec(Enc(a)*Enc(b)) = %v, want %v", got, want)
		}
	}
}

func TestBlindedDifferenceProtocolShape(t *testing.T) {
	// The homoPM core step: the server combines Enc(a) and Enc(-q mod N)
	// to get Enc(a - q mod N) without decrypting; the querier decrypts and
	// reads plaintexts above N/2 as negative.
	k := testKey(t)
	a, q := big.NewInt(17), big.NewInt(25)
	ca, _ := k.Encrypt(a, nil)
	cq, _ := k.Encrypt(new(big.Int).Sub(k.N, q), nil)
	diff, err := k.AddCipher(ca, cq)
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.Decrypt(diff)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(new(big.Int).Rsh(k.N, 1)) > 0 {
		got.Sub(got, k.N)
	}
	if got.Int64() != -8 {
		t.Fatalf("blinded difference = %v, want -8", got)
	}
}

func TestRerandomizePreservesPlaintext(t *testing.T) {
	k := testKey(t)
	c, _ := k.Encrypt(big.NewInt(5), nil)
	c2, err := k.Rerandomize(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cmp(c2) == 0 {
		t.Error("rerandomization did not change the ciphertext")
	}
	got, _ := k.Decrypt(c2)
	if got.Int64() != 5 {
		t.Errorf("rerandomized plaintext = %v, want 5", got)
	}
}

func TestDecryptRejectsBadCiphertexts(t *testing.T) {
	k := testKey(t)
	for _, c := range []*big.Int{nil, big.NewInt(0), big.NewInt(-3), k.N2} {
		if _, err := k.Decrypt(c); !errors.Is(err, ErrCiphertextRange) {
			t.Errorf("Decrypt(%v) err = %v, want ErrCiphertextRange", c, err)
		}
	}
}

func TestHomomorphicOpsRejectBadCiphertexts(t *testing.T) {
	k := testKey(t)
	good, _ := k.Encrypt(big.NewInt(1), nil)
	bad := big.NewInt(0)
	if _, err := k.AddCipher(good, bad); err == nil {
		t.Error("AddCipher accepted zero ciphertext")
	}
	if _, err := k.AddCipher(bad, good); err == nil {
		t.Error("AddCipher accepted zero ciphertext as its first operand")
	}
	if _, err := k.Rerandomize(bad, nil); err == nil {
		t.Error("Rerandomize accepted zero ciphertext")
	}
}

func TestQuickHomomorphicSum(t *testing.T) {
	k := testKey(t)
	prop := func(a, b uint32) bool {
		ca, err := k.Encrypt(big.NewInt(int64(a)), nil)
		if err != nil {
			return false
		}
		cb, err := k.Encrypt(big.NewInt(int64(b)), nil)
		if err != nil {
			return false
		}
		sum, err := k.AddCipher(ca, cb)
		if err != nil {
			return false
		}
		got, err := k.Decrypt(sum)
		if err != nil {
			return false
		}
		return got.Int64() == int64(a)+int64(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncrypt1024(b *testing.B) {
	k := testKey(b)
	m := big.NewInt(123456789)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Encrypt(m, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAddCipher1024(b *testing.B) {
	k := testKey(b)
	ca, _ := k.Encrypt(big.NewInt(1), nil)
	cb, _ := k.Encrypt(big.NewInt(2), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.AddCipher(ca, cb); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecrypt1024(b *testing.B) {
	k := testKey(b)
	c, _ := k.Encrypt(big.NewInt(7), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Decrypt(c); err != nil {
			b.Fatal(err)
		}
	}
}
