// Package oprf implements the RSA-OPRF (oblivious pseudo-random function)
// from the paper's Section III: an interactive protocol in which a client
// obtains F(sk, m) = H'(H(m)^d mod N) from a server holding the RSA secret
// exponent d, while the server learns nothing about m or the output.
//
// The client blinds x = H(m) * s^e mod N with a fresh random s, the server
// returns y = x^d mod N, and the client unblinds r = y * s^-1 = H(m)^d and
// hashes it. Because RSA blind signatures are verifiable, the client also
// checks y^e == x mod N, so a misbehaving OPRF server is detected rather
// than silently corrupting the derived key.
//
// S-MATCH uses this to harden the fuzzy profile key: Kup = OPRF(H(T(u))),
// which stops an offline brute-force over the (low-entropy) profile space —
// the attacker must query the OPRF server once per guess.
package oprf

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Common protocol errors.
var (
	ErrBadElement   = errors.New("oprf: element outside Z_N")
	ErrVerifyFailed = errors.New("oprf: server response failed blind-signature verification")
	// ErrFault reports that the server's own CRT result failed the
	// public-key check; the faulty value is withheld because it would
	// factor N.
	ErrFault = errors.New("oprf: evaluation failed its consistency check")
)

var two = big.NewInt(2)

// PublicKey is the client's view of the OPRF key: the RSA modulus and
// public exponent.
type PublicKey struct {
	N *big.Int
	E int
}

// Validate checks structural sanity of the public key.
func (pk PublicKey) Validate() error {
	if pk.N == nil || pk.N.BitLen() < 512 {
		return fmt.Errorf("oprf: modulus too small (%d bits)", bitLen(pk.N))
	}
	if pk.E < 3 || pk.E%2 == 0 {
		return fmt.Errorf("oprf: invalid public exponent %d", pk.E)
	}
	return nil
}

func bitLen(n *big.Int) int {
	if n == nil {
		return 0
	}
	return n.BitLen()
}

// Server holds the RSA secret key and answers blind evaluation requests.
// It is safe for concurrent use.
type Server struct {
	key *rsa.PrivateKey // two primes, validated, CRT values precomputed
	e   *big.Int
}

// NewServer generates a fresh RSA-OPRF server key of the given modulus size.
func NewServer(bits int) (*Server, error) {
	if bits < 512 {
		return nil, fmt.Errorf("oprf: modulus size %d too small (min 512)", bits)
	}
	key, err := rsa.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, fmt.Errorf("oprf: generating RSA key: %w", err)
	}
	return NewServerFromKey(key)
}

// NewServerFromKey wraps an existing RSA private key after validating it
// and filling in its CRT values (key.Precompute). Evaluate is a two-prime
// CRT, so multi-prime keys are refused.
func NewServerFromKey(key *rsa.PrivateKey) (*Server, error) {
	if key == nil {
		return nil, errors.New("oprf: nil key")
	}
	if len(key.Primes) != 2 {
		return nil, fmt.Errorf("oprf: key has %d primes, want 2", len(key.Primes))
	}
	if err := key.Validate(); err != nil {
		return nil, fmt.Errorf("oprf: invalid key: %w", err)
	}
	key.Precompute()
	if pc := key.Precomputed; pc.Dp == nil || pc.Dq == nil || pc.Qinv == nil {
		return nil, errors.New("oprf: key has no CRT values after Precompute")
	}
	return &Server{key: key, e: big.NewInt(int64(key.E))}, nil
}

// PublicKey returns the key material clients need.
func (s *Server) PublicKey() PublicKey {
	return PublicKey{N: new(big.Int).Set(s.key.N), E: s.key.E}
}

// Evaluate computes x^d mod N on a blinded element. The server cannot tell
// which input the client is evaluating.
//
// The exponentiation runs mod p and mod q (CRT) on r^e * x for a fresh
// random r, and the result is unblinded by r^-1. math/big is not constant
// time, and CRT with inputs the client chooses is the setting of Brumley
// and Boneh's remote timing attack on p and q; the server-side blinding
// makes the exponentiated base unknown to the client. Before unblinding,
// y^e == r^e * x is checked: a CRT result that is wrong modulo only one
// prime reveals the other through a gcd, so a mismatch returns ErrFault and
// never the value.
func (s *Server) Evaluate(x *big.Int) (*big.Int, error) {
	n := s.key.N
	if x == nil || x.Sign() <= 0 || x.Cmp(n) >= 0 {
		return nil, ErrBadElement
	}
	r, rInv, err := randomUnit(rand.Reader, n)
	if err != nil {
		return nil, fmt.Errorf("oprf: server blinding: %w", err)
	}
	bx := r.Exp(r, s.e, n)
	bx.Mul(bx, x).Mod(bx, n)

	// Garner's recombination: y = yq + q * (qInv * (yp - yq) mod p).
	p, q, pc := s.key.Primes[0], s.key.Primes[1], &s.key.Precomputed
	y := new(big.Int).Exp(bx, pc.Dp, p)
	yq := new(big.Int).Exp(bx, pc.Dq, q)
	y.Sub(y, yq)
	y.Mul(y, pc.Qinv).Mod(y, p) // Mod is Euclidean: the result is in [0, p)
	y.Mul(y, q).Add(y, yq)

	if new(big.Int).Exp(y, s.e, n).Cmp(bx) != 0 {
		return nil, ErrFault
	}
	y.Mul(y, rInv)
	return y.Mod(y, n), nil
}

// randomUnit draws a uniform v in [2, N) that is invertible mod N, and
// returns it with its inverse. ModInverse returning nil is the coprimality
// test.
func randomUnit(rng io.Reader, n *big.Int) (v, vInv *big.Int, err error) {
	vInv = new(big.Int)
	for {
		v, err = rand.Int(rng, n)
		if err != nil {
			return nil, nil, err
		}
		if v.Cmp(two) >= 0 && vInv.ModInverse(v, n) != nil {
			return v, vInv, nil
		}
	}
}

// Evaluator abstracts where the OPRF server lives: in-process (the *Server
// itself) or across the network (internal/wire provides a remote evaluator).
type Evaluator interface {
	Evaluate(x *big.Int) (*big.Int, error)
}

var _ Evaluator = (*Server)(nil)

// Request is the client state for one blind evaluation.
type Request struct {
	pk      PublicKey
	blinded *big.Int // x = H(m) * s^e mod N
	sInv    *big.Int
	hashed  *big.Int // H(m), kept for verification
}

// Blind hashes the input into Z_N and blinds it with fresh randomness from
// rng (crypto/rand.Reader in production; injectable for tests).
func Blind(pk PublicKey, input []byte, rng io.Reader) (*Request, error) {
	if err := pk.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		rng = rand.Reader
	}
	h := hashToGroup(input, pk.N)
	s, sInv, err := randomUnit(rng, pk.N)
	if err != nil {
		return nil, fmt.Errorf("oprf: sampling blind: %w", err)
	}
	se := new(big.Int).Exp(s, big.NewInt(int64(pk.E)), pk.N)
	x := new(big.Int).Mul(h, se)
	x.Mod(x, pk.N)
	return &Request{pk: pk, blinded: x, sInv: sInv, hashed: h}, nil
}

// Blinded returns the element to send to the server.
func (r *Request) Blinded() *big.Int { return new(big.Int).Set(r.blinded) }

// Finalize unblinds the server response, verifies it, and returns the
// 32-byte PRF output H'(H(m)^d).
func (r *Request) Finalize(y *big.Int) ([]byte, error) {
	if y == nil || y.Sign() <= 0 || y.Cmp(r.pk.N) >= 0 {
		return nil, ErrBadElement
	}
	// Verifiability: y^e must equal the blinded element we sent.
	check := new(big.Int).Exp(y, big.NewInt(int64(r.pk.E)), r.pk.N)
	if check.Cmp(r.blinded) != 0 {
		return nil, ErrVerifyFailed
	}
	sig := new(big.Int).Mul(y, r.sInv)
	sig.Mod(sig, r.pk.N)
	out := sha256.Sum256(append([]byte("smatch/oprf/out/"), sig.Bytes()...))
	return out[:], nil
}

// Eval runs the whole client side against an Evaluator: blind, evaluate,
// finalize. This is the one-call API S-MATCH's key generation uses.
func Eval(pk PublicKey, ev Evaluator, input []byte) ([]byte, error) {
	req, err := Blind(pk, input, nil)
	if err != nil {
		return nil, err
	}
	y, err := ev.Evaluate(req.Blinded())
	if err != nil {
		return nil, fmt.Errorf("oprf: evaluate: %w", err)
	}
	return req.Finalize(y)
}

// hashToGroup maps input to an element of [1, N) by counter-mode SHA-256
// expansion to the modulus width followed by reduction. The 2^-128-ish bias
// from reduction is irrelevant here.
func hashToGroup(input []byte, n *big.Int) *big.Int {
	outLen := (n.BitLen() + 7) / 8
	buf := make([]byte, 0, outLen+sha256.Size)
	// Each block is SHA-256(prefix ‖ BE32(ctr) ‖ input), hashed from one
	// stack buffer whose counter field is rewritten per block.
	const prefix = "smatch/oprf/h2g/"
	msgLen := len(prefix) + 4 + len(input)
	var stack [len(prefix) + 4 + 64]byte
	var msg []byte
	if msgLen <= len(stack) {
		msg = stack[:msgLen]
	} else {
		msg = make([]byte, msgLen)
	}
	copy(msg, prefix)
	copy(msg[len(prefix)+4:], input)
	for ctr := uint32(0); len(buf) < outLen; ctr++ {
		binary.BigEndian.PutUint32(msg[len(prefix):], ctr)
		sum := sha256.Sum256(msg)
		buf = append(buf, sum[:]...)
	}
	v := new(big.Int).SetBytes(buf[:outLen])
	v.Mod(v, n)
	if v.Sign() == 0 {
		v.SetInt64(1)
	}
	return v
}
