// Package keygen implements the paper's fuzzy key generation (Section VI,
// Algorithm Keygen): users with Definition-3-close profiles derive the same
// OPE profile key without ever communicating, which simultaneously solves
// the PPE key-sharing problem and pre-filters the server's search space.
//
// Pipeline, per the paper:
//
//	T(u)  <- RSD(Au, theta)      // fuzzy vector via Reed-Solomon decoding
//	K'    <- H(T(u))             // one-way hash of the fuzzy vector
//	Kup   <- RSA-OPRF(K')        // harden against offline brute force
//
// Concretely, RSD(Au, theta) quantizes each attribute value into cells of
// width 2*theta+1 — so profiles within theta land on equal symbols except
// when they straddle a cell boundary — and then runs the GF(2^10)
// Reed-Solomon decoder over the quantized symbol vector, snapping vectors
// that lie within the code's correction radius onto a common codeword.
// Vectors outside every decoding sphere keep their quantized form (the
// identity fallback); boundary straddles that survive both steps are
// exactly the true-positive losses Figure 4(b) measures.
package keygen

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"smatch/internal/gf"
	"smatch/internal/oprf"
	"smatch/internal/profile"
	"smatch/internal/rs"
)

// KeySize is the profile key length in bytes.
const KeySize = 32

// fieldBits is the paper's Galois field choice: GF(2^10), n = 2^10.
const fieldBits = 10

// Key is a derived profile key. Users with close profiles hold equal Keys.
type Key struct {
	bytes []byte
}

// Bytes returns the 32-byte key material (the OPE key).
func (k *Key) Bytes() []byte { return append([]byte(nil), k.bytes...) }

// Hash returns h(Kup), the public index the server files encrypted profiles
// under (message format (3) in the paper).
func (k *Key) Hash() []byte {
	h := sha256.Sum256(append([]byte("smatch/keyhash/"), k.bytes...))
	return h[:]
}

// Equal reports whether two keys are identical.
func (k *Key) Equal(other *Key) bool {
	if k == nil || other == nil {
		return k == other
	}
	if len(k.bytes) != len(other.bytes) {
		return false
	}
	var diff byte
	for i := range k.bytes {
		diff |= k.bytes[i] ^ other.bytes[i]
	}
	return diff == 0
}

// Generator derives profile keys for one schema and threshold. Safe for
// concurrent use.
type Generator struct {
	schema  profile.Schema
	theta   int
	code    *rs.Code
	pk      oprf.PublicKey
	eval    oprf.Evaluator
	binding []byte
}

// Options tune the generator beyond the paper's defaults.
type Options struct {
	// DisableRS skips the Reed-Solomon snap so the fuzzy vector is the
	// raw quantized profile. Used by the ablation experiments to isolate
	// what codeword merging contributes to the true-positive rate.
	DisableRS bool
	// KeyBinding is opaque public deployment material folded into the key
	// seed before OPRF hardening — the scoring layer passes its canonical
	// weight encoding here, so profiles enrolled under different scoring
	// configurations derive unrelated keys and their (differently scaled)
	// chains can never silently collide in one bucket. Empty keeps the
	// legacy v1 seed bytes, so binding-free deployments are unchanged.
	KeyBinding []byte
}

// New constructs a Generator with default options. theta is the RS decoder
// threshold from the paper's Definition 3; the OPRF evaluator is the
// random-number-generator service (in-process *oprf.Server or a remote
// client).
func New(schema profile.Schema, theta int, pk oprf.PublicKey, eval oprf.Evaluator) (*Generator, error) {
	return NewWithOptions(schema, theta, pk, eval, Options{})
}

// NewWithOptions is New with explicit Options.
func NewWithOptions(schema profile.Schema, theta int, pk oprf.PublicKey, eval oprf.Evaluator, opts Options) (*Generator, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if theta < 1 {
		return nil, fmt.Errorf("keygen: theta %d must be >= 1", theta)
	}
	if eval == nil {
		return nil, errors.New("keygen: nil OPRF evaluator")
	}
	if err := pk.Validate(); err != nil {
		return nil, err
	}
	d := schema.NumAttrs()
	for _, a := range schema.Attrs {
		// Quantized symbols must fit the field.
		if (a.NumValues-1)/(2*theta+1) >= 1<<fieldBits {
			return nil, fmt.Errorf("keygen: attribute %q quantizes outside GF(2^%d)", a.Name, fieldBits)
		}
	}
	g := &Generator{schema: schema, theta: theta, pk: pk, eval: eval,
		binding: append([]byte(nil), opts.KeyBinding...)}
	if d >= 3 && !opts.DisableRS {
		// Shortened (d, k) code over GF(2^10): correct up to ~d/4 symbol
		// straddles. With d < 3 there is no room for parity; quantization
		// alone applies.
		t := d / 4
		if t < 1 {
			t = 1
		}
		k := d - 2*t
		if k < 1 {
			k = 1
		}
		code, err := rs.New(fieldBits, d, k)
		if err != nil {
			return nil, fmt.Errorf("keygen: building (%d,%d) RS code: %w", d, k, err)
		}
		g.code = code
	}
	return g, nil
}

// Quantize maps raw attribute values into cell symbols: cell width
// 2*theta+1, so values within theta of each other agree unless they
// straddle a boundary.
func (g *Generator) Quantize(p profile.Profile) ([]gf.Elem, error) {
	if err := p.CheckAgainst(g.schema); err != nil {
		return nil, err
	}
	w := 2*g.theta + 1
	out := make([]gf.Elem, len(p.Attrs))
	for i, v := range p.Attrs {
		out[i] = gf.Elem(v / w)
	}
	return out, nil
}

// FuzzyVector computes T(u): the Reed-Solomon-decoded quantized profile.
// When the quantized vector lies outside every decoding sphere (the normal
// case for an arbitrary profile), the quantized vector itself is the fuzzy
// vector; the decoder's role is to merge near-codeword neighborhoods.
func (g *Generator) FuzzyVector(p profile.Profile) ([]gf.Elem, error) {
	q, err := g.Quantize(p)
	if err != nil {
		return nil, err
	}
	return g.snap(q)
}

// snap decodes a cell vector to its nearest codeword, or returns the
// cells themselves when they lie outside every decoding sphere.
func (g *Generator) snap(cells []gf.Elem) ([]gf.Elem, error) {
	if g.code == nil {
		return cells, nil
	}
	corrected, _, err := g.code.Decode(cells)
	switch {
	case err == nil:
		return corrected, nil
	case errors.Is(err, rs.ErrTooManyErrors):
		return cells, nil
	default:
		return nil, fmt.Errorf("keygen: RS decoding: %w", err)
	}
}

// ProfileKey runs the full Keygen algorithm: fuzzy vector, hash, OPRF.
// The OPRF round trips to the evaluator once per call.
func (g *Generator) ProfileKey(p profile.Profile) (*Key, error) {
	seed, err := g.keySeed(p)
	if err != nil {
		return nil, err
	}
	hardened, err := oprf.Eval(g.pk, g.eval, seed)
	if err != nil {
		return nil, fmt.Errorf("keygen: OPRF hardening: %w", err)
	}
	return &Key{bytes: hardened}, nil
}

// keySeed computes K' = H(T(u)), folding in the key binding when present.
func (g *Generator) keySeed(p profile.Profile) ([]byte, error) {
	t, err := g.FuzzyVector(p)
	if err != nil {
		return nil, err
	}
	return hashFuzzyVector(g.theta, g.binding, t), nil
}

// hashFuzzyVector hashes a fuzzy vector into the OPRF input K',
// domain-separated by theta and the vector length so keys from different
// configurations never collide. A non-empty binding switches to the v2
// domain and is length-prefixed into the hash, so bound and unbound seeds
// — and seeds under different bindings — live in disjoint input spaces;
// an empty binding reproduces the v1 bytes exactly.
func hashFuzzyVector(theta int, binding []byte, t []gf.Elem) []byte {
	h := sha256.New()
	if len(binding) == 0 {
		h.Write([]byte("smatch/keyseed/v1/"))
	} else {
		h.Write([]byte("smatch/keyseed/v2/"))
		var blen [4]byte
		binary.BigEndian.PutUint32(blen[:], uint32(len(binding)))
		h.Write(blen[:])
		h.Write(binding)
	}
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(theta))
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(t)))
	h.Write(hdr[:])
	for _, sym := range t {
		var b [2]byte
		binary.BigEndian.PutUint16(b[:], sym)
		h.Write(b[:])
	}
	return h.Sum(nil)
}
