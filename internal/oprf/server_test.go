package oprf

import (
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"math/big"
	"testing"
)

// evaluatePlain is the exponentiation Evaluate replaced, x^d mod N with no
// CRT and no blinding: the oracle the CRT path must agree with.
func evaluatePlain(key *rsa.PrivateKey, x *big.Int) *big.Int {
	return new(big.Int).Exp(x, key.D, key.N)
}

func TestEvaluateMatchesPlainExponentiation(t *testing.T) {
	srv := testServer(t)
	key := srv.key
	n, p, q := key.N, key.Primes[0], key.Primes[1]
	xs := map[string]*big.Int{
		"1":   big.NewInt(1),
		"2":   big.NewInt(2),
		"N-1": new(big.Int).Sub(n, big.NewInt(1)),
		"p":   p,
		"q":   q,
		"3p":  new(big.Int).Mul(p, big.NewInt(3)),
		"kq":  new(big.Int).Mul(q, new(big.Int).Rsh(p, 1)),
	}
	for i := 0; i < 16; i++ {
		x, err := rand.Int(rand.Reader, n)
		if err != nil {
			t.Fatal(err)
		}
		if x.Sign() > 0 {
			xs["random "+x.Text(16)[:8]] = x
		}
	}
	for name, x := range xs {
		want := evaluatePlain(key, x)
		// Twice: the answer must not depend on the server's blinding.
		for i := 0; i < 2; i++ {
			got, err := srv.Evaluate(x)
			if err != nil {
				t.Fatalf("Evaluate(%s): %v", name, err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("Evaluate(%s) = %x, x^d mod N = %x", name, got, want)
			}
		}
	}
}

// copyKey returns a key that shares no big.Int with key and carries no
// precomputed values.
func copyKey(key *rsa.PrivateKey) *rsa.PrivateKey {
	c := &rsa.PrivateKey{
		PublicKey: rsa.PublicKey{N: new(big.Int).Set(key.N), E: key.E},
		D:         new(big.Int).Set(key.D),
	}
	for _, p := range key.Primes {
		c.Primes = append(c.Primes, new(big.Int).Set(p))
	}
	return c
}

// TestEvaluateWithholdsFaultyResult corrupts one CRT exponent, the fault
// that lets gcd(y^e - x, N) factor N, and expects an error and no value.
func TestEvaluateWithholdsFaultyResult(t *testing.T) {
	srv, err := NewServerFromKey(copyKey(testServer(t).key))
	if err != nil {
		t.Fatal(err)
	}
	x := big.NewInt(0xfa017)
	if _, err := srv.Evaluate(x); err != nil {
		t.Fatalf("before the fault: %v", err)
	}
	dp := srv.key.Precomputed.Dp
	dp.Xor(dp, big.NewInt(1<<20))
	y, err := srv.Evaluate(x)
	if !errors.Is(err, ErrFault) {
		t.Errorf("faulty CRT: err = %v, want ErrFault", err)
	}
	if y != nil {
		t.Errorf("faulty CRT returned a value: %x", y)
	}
	if ys, err := srv.EvaluateBatch([]*big.Int{x}); !errors.Is(err, ErrFault) || ys != nil {
		t.Errorf("faulty CRT in a batch: %v, %v", ys, err)
	}
}

func TestNewServerFromKeyPrecomputes(t *testing.T) {
	bare := copyKey(testServer(t).key)
	if bare.Precomputed.Dp != nil {
		t.Fatal("test key already precomputed")
	}
	srv, err := NewServerFromKey(bare)
	if err != nil {
		t.Fatal(err)
	}
	x := big.NewInt(31337)
	got, err := srv.Evaluate(x)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(evaluatePlain(bare, x)) != 0 {
		t.Error("server built from an unprecomputed key evaluates wrongly")
	}
}

func TestNewServerFromKeyRefusesBadKeys(t *testing.T) {
	good := testServer(t).key

	wrongD := copyKey(good)
	wrongD.D.Add(wrongD.D, big.NewInt(2))
	if _, err := NewServerFromKey(wrongD); err == nil {
		t.Error("key with a wrong private exponent accepted")
	}

	noPrimes := copyKey(good)
	noPrimes.Primes = nil
	if _, err := NewServerFromKey(noPrimes); err == nil {
		t.Error("key without primes accepted")
	}

	// A consistent three-prime key: valid RSA, but not what Evaluate's
	// two-prime recombination handles.
	var three *rsa.PrivateKey
	for three == nil {
		n, phi := big.NewInt(1), big.NewInt(1)
		var primes []*big.Int
		for i := 0; i < 3; i++ {
			p, err := rand.Prime(rand.Reader, 342)
			if err != nil {
				t.Fatal(err)
			}
			primes = append(primes, p)
			n.Mul(n, p)
			phi.Mul(phi, new(big.Int).Sub(p, big.NewInt(1)))
		}
		if d := new(big.Int).ModInverse(big.NewInt(65537), phi); d != nil {
			three = &rsa.PrivateKey{PublicKey: rsa.PublicKey{N: n, E: 65537}, D: d, Primes: primes}
		}
	}
	if _, err := NewServerFromKey(three); err == nil {
		t.Error("three-prime key accepted")
	}
}

func BenchmarkServerEvaluate2048(b *testing.B) {
	key, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServerFromKey(key)
	if err != nil {
		b.Fatal(err)
	}
	x := hashToGroup([]byte("bench"), key.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Evaluate(x); err != nil {
			b.Fatal(err)
		}
	}
}
