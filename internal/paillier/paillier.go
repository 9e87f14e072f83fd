// Package paillier implements the Paillier public-key cryptosystem
// (EUROCRYPT'99): additively homomorphic encryption over Z_n. It is the
// substrate for the homoPM baseline (Zhang et al., INFOCOM'12) that the
// S-MATCH paper compares against in Figures 4(c-e) and 5(a-c).
//
// Its homomorphic property, modulo n^2:
//
//	Enc(a) * Enc(b)   decrypts to a + b  (AddCipher)
//
// The implementation uses the standard g = n + 1 simplification, so
// Enc(m; r) = (1 + m*n) * r^n mod n^2.
package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

var one = big.NewInt(1)

// Common errors.
var (
	ErrMessageRange    = errors.New("paillier: message outside [0, N)")
	ErrCiphertextRange = errors.New("paillier: ciphertext outside [1, N^2) or not invertible")
)

// PublicKey allows encryption and homomorphic operations.
type PublicKey struct {
	N  *big.Int // modulus
	N2 *big.Int // n^2, cached
}

// PrivateKey additionally allows decryption.
type PrivateKey struct {
	PublicKey
	lambda *big.Int // lcm(p-1, q-1)
	mu     *big.Int // (L(g^lambda mod n^2))^-1 mod n
}

// GenerateKey creates a Paillier key pair with an n of the given bit size.
func GenerateKey(bits int, rng io.Reader) (*PrivateKey, error) {
	if bits < 128 {
		return nil, fmt.Errorf("paillier: modulus size %d too small (min 128)", bits)
	}
	if rng == nil {
		rng = rand.Reader
	}
	for {
		p, err := rand.Prime(rng, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating prime: %w", err)
		}
		q, err := rand.Prime(rng, bits-bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating prime: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		gcd := new(big.Int).GCD(nil, nil, pm1, qm1)
		lambda := new(big.Int).Mul(pm1, qm1)
		lambda.Div(lambda, gcd)

		n2 := new(big.Int).Mul(n, n)
		pk := PublicKey{N: n, N2: n2}
		// mu = (L(g^lambda mod n^2))^-1 mod n with g = n+1:
		// g^lambda = (1+n)^lambda = 1 + lambda*n mod n^2, so
		// L(g^lambda) = lambda mod n, and mu = lambda^-1 mod n.
		mu := new(big.Int).ModInverse(new(big.Int).Mod(lambda, n), n)
		if mu == nil {
			continue // gcd(lambda, n) != 1; retry with new primes
		}
		return &PrivateKey{PublicKey: pk, lambda: lambda, mu: mu}, nil
	}
}

// Public returns the public part of the key.
func (k *PrivateKey) Public() *PublicKey { return &k.PublicKey }

// Encrypt encrypts m in [0, N) with fresh randomness from rng.
func (pk *PublicKey) Encrypt(m *big.Int, rng io.Reader) (*big.Int, error) {
	if m == nil || m.Sign() < 0 || m.Cmp(pk.N) >= 0 {
		return nil, ErrMessageRange
	}
	if rng == nil {
		rng = rand.Reader
	}
	r, err := pk.randUnit(rng)
	if err != nil {
		return nil, err
	}
	// c = (1 + m*n) * r^n mod n^2.
	c := new(big.Int).Mul(m, pk.N)
	c.Add(c, one)
	c.Mod(c, pk.N2)
	rn := new(big.Int).Exp(r, pk.N, pk.N2)
	c.Mul(c, rn)
	c.Mod(c, pk.N2)
	return c, nil
}

func (pk *PublicKey) randUnit(rng io.Reader) (*big.Int, error) {
	for {
		r, err := rand.Int(rng, pk.N)
		if err != nil {
			return nil, fmt.Errorf("paillier: sampling randomness: %w", err)
		}
		if r.Sign() == 0 {
			continue
		}
		if new(big.Int).GCD(nil, nil, r, pk.N).Cmp(one) == 0 {
			return r, nil
		}
	}
}

// validCiphertext checks c in [1, N^2) with gcd(c, N^2) = 1.
func (pk *PublicKey) validCiphertext(c *big.Int) bool {
	if c == nil || c.Sign() <= 0 || c.Cmp(pk.N2) >= 0 {
		return false
	}
	return new(big.Int).GCD(nil, nil, c, pk.N2).Cmp(one) == 0
}

// Decrypt recovers the plaintext in [0, N).
func (k *PrivateKey) Decrypt(c *big.Int) (*big.Int, error) {
	if !k.validCiphertext(c) {
		return nil, ErrCiphertextRange
	}
	// m = L(c^lambda mod n^2) * mu mod n, L(x) = (x-1)/n.
	x := new(big.Int).Exp(c, k.lambda, k.N2)
	x.Sub(x, one)
	x.Div(x, k.N)
	x.Mul(x, k.mu)
	x.Mod(x, k.N)
	return x, nil
}

// AddCipher returns a ciphertext of (plain(a) + plain(b)) mod N:
// homomorphic addition is ciphertext multiplication mod N^2.
func (pk *PublicKey) AddCipher(a, b *big.Int) (*big.Int, error) {
	if !pk.validCiphertext(a) || !pk.validCiphertext(b) {
		return nil, ErrCiphertextRange
	}
	c := new(big.Int).Mul(a, b)
	return c.Mod(c, pk.N2), nil
}

// Rerandomize multiplies c by a fresh encryption of zero, unlinking it from
// its origin. homoPM's server uses this before returning aggregates.
func (pk *PublicKey) Rerandomize(c *big.Int, rng io.Reader) (*big.Int, error) {
	zero, err := pk.Encrypt(big.NewInt(0), rng)
	if err != nil {
		return nil, err
	}
	return pk.AddCipher(c, zero)
}
