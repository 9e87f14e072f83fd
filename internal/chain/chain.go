// Package chain implements the paper's "Attribute Chaining" step: after the
// entropy-increase mapping, a user's attributes are permuted into a random
// order and each is OPE-encrypted, producing the chain
// E(A'_1) || ... || E(A'_d) that is uploaded to the untrusted server
// (message format (3) in the paper). Randomizing positions stops an attacker
// from brute-forcing a single known attribute slot, whose entropy is lower
// than the whole chain's.
//
// The server-side distance (Definition 4) is the difference of
// order sums, which is invariant under the per-user permutation — that is
// what lets each user pick an independent secret order without breaking
// matching.
package chain

import (
	"errors"
	"fmt"
	"math/big"

	"smatch/internal/ope"
	"smatch/internal/prf"
)

// Chain is an encrypted, permuted attribute vector as stored on the server.
type Chain struct {
	// Cts holds the OPE ciphertexts in chain (permuted) order.
	Cts []*big.Int
	// CtBits is the ciphertext width, fixed by the OPE parameters; it
	// determines the serialized size.
	CtBits uint
}

// Scorer is the pluggable scoring hook applied between the entropy mapping
// and OPE sealing: it turns entropy-mapped plaintexts into the scored
// plaintexts whose ciphertext order sum the server compares (the weighted-
// matching extension point; internal/scoring implements it). Score must
// return one value per input, may return the input slice itself when it is
// the identity, and must never mutate the inputs.
type Scorer interface {
	Score(mapped []*big.Int) ([]*big.Int, error)
}

// Codec seals profiles into chains under one OPE scheme (hence one profile
// key), optionally scoring the plaintexts first. Safe for concurrent use.
type Codec struct {
	scheme *ope.Scheme
	scorer Scorer // nil = identity (the unit scoring profile)
}

// NewScoredCodec wraps an OPE scheme plus a scoring hook. A nil scorer is
// the identity; callers holding a unit scoring profile should pass nil so
// the hot path skips the indirection entirely.
func NewScoredCodec(scheme *ope.Scheme, scorer Scorer) (*Codec, error) {
	if scheme == nil {
		return nil, errors.New("chain: nil OPE scheme")
	}
	return &Codec{scheme: scheme, scorer: scorer}, nil
}

// Seal scores the mapped attribute values (identity unless a Scorer is
// plugged in), permutes them with a permutation drawn from permCoins (each
// user derives its own secret stream) and OPE-encrypts each value.
// len(mapped) is the attribute count d. Scored values that overflow the
// scheme's plaintext space are reported explicitly: the OPE ranges must be
// widened by the scoring profile's extra bits (core does this
// automatically).
func (c *Codec) Seal(mapped []*big.Int, permCoins *prf.Stream) (*Chain, error) {
	if len(mapped) == 0 {
		return nil, errors.New("chain: empty attribute vector")
	}
	vals := mapped
	if c.scorer != nil {
		scored, err := c.scorer.Score(mapped)
		if err != nil {
			return nil, fmt.Errorf("chain: scoring: %w", err)
		}
		if len(scored) != len(mapped) {
			return nil, fmt.Errorf("chain: scorer returned %d values for %d attributes", len(scored), len(mapped))
		}
		vals = scored
	}
	perm := permCoins.Perm(len(vals))
	cts := make([]*big.Int, len(vals))
	for i, src := range perm {
		ct, err := c.scheme.Encrypt(vals[src])
		if err != nil {
			if errors.Is(err, ope.ErrPlaintextRange) && c.scorer != nil {
				return nil, fmt.Errorf("chain: scored attribute %d overflows the %d-bit OPE plaintext budget (widen PlaintextBits by the scoring profile's ExtraBits): %w",
					src, c.scheme.Params().PlaintextBits, err)
			}
			return nil, fmt.Errorf("chain: encrypting attribute %d: %w", src, err)
		}
		cts[i] = ct
	}
	return &Chain{Cts: cts, CtBits: c.scheme.Params().CiphertextBits}, nil
}

// OrderSum returns the sum of the chain's ciphertexts, the quantity
// Definition 4 compares across users. Permutation-invariant by construction.
func (ch *Chain) OrderSum() *big.Int {
	sum := new(big.Int)
	for _, ct := range ch.Cts {
		sum.Add(sum, ct)
	}
	return sum
}

// NumAttrs returns the number of attributes in the chain.
func (ch *Chain) NumAttrs() int { return len(ch.Cts) }

// ctBytes returns the serialized width of one ciphertext.
func ctBytes(ctBits uint) int { return int(ctBits+7) / 8 }

// Bytes serializes the chain as d fixed-width big-endian ciphertexts, the
// layout the wire protocol and the communication-cost accounting use.
func (ch *Chain) Bytes() []byte {
	w := ctBytes(ch.CtBits)
	out := make([]byte, w*len(ch.Cts))
	for i, ct := range ch.Cts {
		ct.FillBytes(out[i*w : (i+1)*w])
	}
	return out
}

// BitLen returns the serialized chain size in bits, for the Figure 5(d-f)
// communication-cost accounting.
func (ch *Chain) BitLen() int { return len(ch.Cts) * 8 * ctBytes(ch.CtBits) }

// Parse reconstructs a chain of d attributes with the given ciphertext
// width from its serialized form.
func Parse(b []byte, d int, ctBits uint) (*Chain, error) {
	if d <= 0 {
		return nil, errors.New("chain: non-positive attribute count")
	}
	w := ctBytes(ctBits)
	if len(b) != d*w {
		return nil, fmt.Errorf("chain: %d bytes, want %d (d=%d, %d bits per ciphertext)", len(b), d*w, d, ctBits)
	}
	cts := make([]*big.Int, d)
	limit := new(big.Int).Lsh(big.NewInt(1), ctBits)
	for i := 0; i < d; i++ {
		ct := new(big.Int).SetBytes(b[i*w : (i+1)*w])
		if ct.Cmp(limit) >= 0 {
			return nil, fmt.Errorf("chain: ciphertext %d exceeds %d bits", i, ctBits)
		}
		cts[i] = ct
	}
	return &Chain{Cts: cts, CtBits: ctBits}, nil
}
