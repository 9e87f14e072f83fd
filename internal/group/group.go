// Package group provides a Schnorr group: the prime-order subgroup of
// quadratic residues modulo a safe prime p = 2q + 1. S-MATCH's verification
// protocol computes its commitments p^s and p^(s*ID) here, because the
// security argument reduces recovering s from the authentication information
// to the computational Diffie-Hellman problem "in the proper group (e.g.,
// the subgroup of quadratic residues)".
package group

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
)

var (
	one = big.NewInt(1)
	two = big.NewInt(2)
)

// Group is the subgroup of quadratic residues mod a safe prime P = 2Q + 1.
// G generates the subgroup, which has prime order Q. Safe for concurrent
// use. The fields must not change after the first RandScalar or Pow, which
// derive values from them that later calls reuse; to vary a group, build a
// new literal from its fields.
type Group struct {
	P *big.Int // safe prime modulus
	Q *big.Int // subgroup order, (P-1)/2
	G *big.Int // generator of the order-Q subgroup

	once sync.Once
	pre  *precomp
}

// precomp is what a Group derives from P, Q and G on first use: about 6 ms
// and 128 KiB at 2048 bits, nearly all of it the comb table.
type precomp struct {
	qm1  *big.Int // Q - 1, RandScalar's bound
	comb *comb    // fixed-base table for G
}

func (g *Group) precomp() *precomp {
	g.once.Do(func() {
		g.pre = &precomp{qm1: new(big.Int).Sub(g.Q, one), comb: newComb(g)}
	})
	return g.pre
}

// rfc3526Prime2048 is the 2048-bit MODP group modulus from RFC 3526 §3,
// a well-known safe prime. With g = 4 (a quadratic residue) we obtain a
// generator of the order-q subgroup.
const rfc3526Prime2048 = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1" +
	"29024E088A67CC74020BBEA63B139B22514A08798E3404DD" +
	"EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245" +
	"E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED" +
	"EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D" +
	"C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F" +
	"83655D23DCA3AD961C62F356208552BB9ED529077096966D" +
	"670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B" +
	"E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9" +
	"DE2BCBF6955817183995497CEA956AE515D2261898FA0510" +
	"15728E5A8AACAA68FFFFFFFFFFFFFFFF"

// The built-in group is parsed once and shared, so every verifier over it
// shares its Pow table too. Callers must not modify it.
var default2048 = mustFromHex(rfc3526Prime2048)

// Default2048 returns the standard 2048-bit group (RFC 3526 group 14
// modulus, generator 4).
func Default2048() *Group { return default2048 }

func mustFromHex(hexP string) *Group {
	p, ok := new(big.Int).SetString(hexP, 16)
	if !ok {
		panic("group: invalid built-in prime")
	}
	q := new(big.Int).Rsh(new(big.Int).Sub(p, one), 1)
	return &Group{P: p, Q: q, G: big.NewInt(4)}
}

// Generate creates a fresh Schnorr group with a random safe prime of the
// given bit length. This is expensive (minutes at 2048 bits); production
// callers should use Default2048. Small sizes are intended for tests.
func Generate(bits int, rng io.Reader) (*Group, error) {
	if bits < 128 {
		return nil, fmt.Errorf("group: prime size %d too small (min 128)", bits)
	}
	if rng == nil {
		rng = rand.Reader
	}
	for {
		q, err := rand.Prime(rng, bits-1)
		if err != nil {
			return nil, fmt.Errorf("group: generating prime: %w", err)
		}
		p := new(big.Int).Lsh(q, 1)
		p.Add(p, one)
		if !p.ProbablyPrime(32) {
			continue
		}
		// Find h with h^2 != 1: then g = h^2 generates the QR subgroup.
		for h := int64(2); h < 100; h++ {
			g := new(big.Int).Exp(big.NewInt(h), two, p)
			if g.Cmp(one) != 0 {
				return &Group{P: p, Q: q, G: g}, nil
			}
		}
	}
}

// Validate checks the group invariants: p and q prime, p = 2q+1, and G a
// non-identity element of order q. The primality tests are skipped when P
// equals the built-in modulus, whose primality
// TestBuiltinGroupsAreSafePrimes establishes once instead of every start.
func (g *Group) Validate() error {
	if g.P == nil || g.Q == nil || g.G == nil {
		return errors.New("group: nil parameter")
	}
	check := new(big.Int).Lsh(g.Q, 1)
	check.Add(check, one)
	if check.Cmp(g.P) != 0 {
		return errors.New("group: P != 2Q + 1")
	}
	if !isBuiltinPrime(g.P) {
		if !g.P.ProbablyPrime(32) {
			return errors.New("group: P is not prime")
		}
		if !g.Q.ProbablyPrime(32) {
			return errors.New("group: Q is not prime")
		}
	}
	if g.G.Cmp(two) < 0 || g.G.Cmp(g.P) >= 0 {
		return errors.New("group: generator out of range")
	}
	// Q is prime, so a subgroup element other than 1 has order exactly Q.
	if !g.IsElement(g.G) {
		return errors.New("group: generator order does not divide Q")
	}
	return nil
}

// isBuiltinPrime compares by value, so a group built from copies of the
// built-in parameters is recognised too.
func isBuiltinPrime(p *big.Int) bool {
	return p.Cmp(default2048.P) == 0
}

// Exp returns base^exp mod P.
func (g *Group) Exp(base, exp *big.Int) *big.Int {
	return new(big.Int).Exp(base, exp, g.P)
}

// Pow returns G^exp mod P, which is Exp(G, exp) on a group that passes
// Validate. It relies on G having order Q: an exponent outside [0, Q) is
// reduced mod Q first, so a negative one gives the inverse power.
func (g *Group) Pow(exp *big.Int) *big.Int {
	if exp.Sign() < 0 || exp.Cmp(g.Q) >= 0 {
		exp = new(big.Int).Mod(exp, g.Q)
	}
	return g.precomp().comb.pow(exp)
}

// Mul returns a*b mod P.
func (g *Group) Mul(a, b *big.Int) *big.Int {
	v := new(big.Int).Mul(a, b)
	return v.Mod(v, g.P)
}

// RandScalar draws a uniform exponent in [1, Q).
func (g *Group) RandScalar(rng io.Reader) (*big.Int, error) {
	if rng == nil {
		rng = rand.Reader
	}
	v, err := rand.Int(rng, g.precomp().qm1)
	if err != nil {
		return nil, fmt.Errorf("group: sampling scalar: %w", err)
	}
	return v.Add(v, one), nil
}

// IsElement reports whether x is in the order-Q subgroup (a quadratic
// residue mod P other than 0). P is prime, so the Legendre symbol decides
// it: by Euler's criterion (x/P) == 1 exactly when x^Q == 1 mod P.
func (g *Group) IsElement(x *big.Int) bool {
	if x == nil || x.Sign() <= 0 || x.Cmp(g.P) >= 0 {
		return false
	}
	return legendre(x, g.P) == 1
}

// ElementLen returns the byte length of a serialized group element.
func (g *Group) ElementLen() int {
	return (g.P.BitLen() + 7) / 8
}

// EncodeElement serializes x as a fixed-width big-endian byte string.
func (g *Group) EncodeElement(x *big.Int) []byte {
	return x.FillBytes(make([]byte, g.ElementLen()))
}

// DecodeElement parses a fixed-width element, rejecting non-elements.
func (g *Group) DecodeElement(b []byte) (*big.Int, error) {
	if len(b) != g.ElementLen() {
		return nil, fmt.Errorf("group: element length %d, want %d", len(b), g.ElementLen())
	}
	x := new(big.Int).SetBytes(b)
	if !g.IsElement(x) {
		return nil, errors.New("group: not a subgroup element")
	}
	return x, nil
}
