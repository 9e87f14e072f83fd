// Package scoring is the pluggable scoring layer between the entropy
// mapping and the OPE chain: it decides how a profile's entropy-mapped
// plaintexts become the scored values whose ciphertext order sum the server
// compares (Definition 4). The seed implementation hardwired the identity
// ("every attribute counts equally"); this package surfaces that assumption
// as an explicit scoring profile so deployments can declare per-attribute
// priorities — priority-aware matching à la Niu et al. (Priority-Aware
// Private Matching Schemes for Proximity-Based MSNs) — without touching the
// server, the wire protocol, or the stored formats.
//
// # How weighting works
//
// Weights are applied client-side only: each entropy-mapped value A'_i is
// integer-scaled to w_i·A'_i before OPE sealing. Scaling by a positive
// integer is strictly monotone, so per-attribute OPE ordering is preserved,
// and the server's order-sum distance |Σ E(w_i·A'_i) − Σ E(w_i·B'_i)|
// automatically becomes a weighted distance: attributes with larger weights
// move the sum further per unit of profile difference, so ranking respects
// the declared priorities. The server keeps comparing opaque sums — the
// wire protocol, store, WAL and replication formats stay byte-compatible.
//
// Scaling widens the needed OPE plaintext space: w_i·A'_i < 2^(k+e) where
// e = ceil(log2(max_i w_i)) (ExtraBits). The core layer widens both OPE
// ranges by e automatically, so the per-attribute ciphertexts — and hence
// the order-sum limbs — always have headroom for the scaled values.
//
// A nil or all-ones Weights is the unit profile: it performs no scaling, no
// widening and no key binding, and produces chains byte-identical to the
// pre-scoring implementation (pinned by the equivalence suite).
//
// # Key binding
//
// The canonical weight encoding is folded into fuzzy key derivation
// (keygen.Options.KeyBinding), so two communities running different
// priorities derive unrelated profile keys even from identical profiles:
// their chains land in different buckets and can never be compared under
// mismatched scales. Unit weights bind nothing and keep legacy keys.
package scoring

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"strconv"
	"strings"

	"smatch/internal/profile"
)

// MaxWeight bounds one attribute's priority. 2^20 keeps the widening of
// the OPE spaces (ExtraBits <= 20) small next to the paper's k = 64..2048
// sweep while leaving six decimal orders of magnitude of priority spread.
const MaxWeight = 1 << 20

// Weights holds per-attribute positive integer priorities, index-aligned
// with the schema's attributes. nil means unit (unweighted) everywhere it
// is accepted.
type Weights []uint32

// IsUnit reports whether w performs no scaling: nil or all ones.
func (w Weights) IsUnit() bool {
	for _, wi := range w {
		if wi != 1 {
			return false
		}
	}
	return true
}

// CheckBounds validates the weight values alone (each in [1, MaxWeight]),
// for callers that do not have the schema at hand; Validate adds the
// length check.
func (w Weights) CheckBounds() error {
	for i, wi := range w {
		if wi < 1 {
			return fmt.Errorf("scoring: weight %d is zero (every attribute needs priority >= 1; drop the attribute from the schema to ignore it)", i)
		}
		if wi > MaxWeight {
			return fmt.Errorf("scoring: weight %d = %d exceeds MaxWeight %d", i, wi, MaxWeight)
		}
	}
	return nil
}

// Validate checks w against the schema: one positive bounded priority per
// attribute. nil weights are always valid (unit).
func (w Weights) Validate(schema profile.Schema) error {
	if w == nil {
		return nil
	}
	if len(w) != schema.NumAttrs() {
		return fmt.Errorf("scoring: %d weights for %d attributes", len(w), schema.NumAttrs())
	}
	return w.CheckBounds()
}

// Max returns the largest priority (1 for nil weights).
func (w Weights) Max() uint32 {
	max := uint32(1)
	for _, wi := range w {
		if wi > max {
			max = wi
		}
	}
	return max
}

// ExtraBits returns the widening e of the OPE plaintext/ciphertext spaces
// the scaling needs: the smallest e with max_i w_i <= 2^e, so that
// w_i·A'_i < 2^(k+e) whenever A'_i < 2^k. Unit weights widen by zero.
func (w Weights) ExtraBits() uint {
	return uint(bits.Len32(w.Max() - 1))
}

// Canonical returns the canonical wire encoding of the weight vector —
// the bytes the key derivation binds. Two Weights encode identically iff
// they scale identically; unit weights (nil or all ones) return nil, which
// is what keeps unit deployments on the legacy key-seed bytes.
func (w Weights) Canonical() []byte {
	if w.IsUnit() {
		return nil
	}
	out := make([]byte, 0, len("smatch/weights/v1")+4+4*len(w))
	out = append(out, "smatch/weights/v1"...)
	out = append(out, byte(len(w)>>24), byte(len(w)>>16), byte(len(w)>>8), byte(len(w)))
	for _, wi := range w {
		out = append(out, byte(wi>>24), byte(wi>>16), byte(wi>>8), byte(wi))
	}
	return out
}

// String renders w in the CLI form ("3,1,2"); nil renders as "unit".
func (w Weights) String() string {
	if w == nil {
		return "unit"
	}
	var b strings.Builder
	for i, wi := range w {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(uint64(wi), 10))
	}
	return b.String()
}

// Parse reads the CLI form: comma-separated positive integers, one per
// attribute ("3,1,2"). The empty string parses to nil (unit).
func Parse(s string) (Weights, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "unit" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	w := make(Weights, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("scoring: weight %d %q: %w", i, p, err)
		}
		w[i] = uint32(v)
	}
	if err := w.CheckBounds(); err != nil {
		return nil, err
	}
	return w, nil
}

// Zipf generates a Zipf-distributed priority vector for d attributes:
// attribute ranks are a seed-derived random permutation and the priority of
// the rank-r attribute (r = 1..d) is max(1, round(maxW / r^s)) — a few
// heavily-weighted attributes and a long tail of unit ones, the shape
// user-declared priorities take in practice. Deterministic per
// (d, s, maxW, seed), which is what smatch-datagen's -seed flag plumbs
// through for reproducible populations.
func Zipf(d int, s float64, maxW uint32, seed uint64) Weights {
	if d <= 0 {
		return nil
	}
	if maxW < 1 {
		maxW = 1
	}
	if maxW > MaxWeight {
		maxW = MaxWeight
	}
	if s <= 0 {
		s = 1
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	ranks := rng.Perm(d)
	w := make(Weights, d)
	for i, r := range ranks {
		v := math.Round(float64(maxW) / math.Pow(float64(r+1), s))
		if v < 1 {
			v = 1
		}
		w[i] = uint32(v)
	}
	return w
}

// Profile is one deployment's scoring configuration: it owns how
// entropy-mapped plaintexts become the scored values the chain seals. It
// implements chain.Scorer. Immutable and safe for concurrent use.
type Profile struct {
	weights Weights // nil for unit
	binding []byte
}

// NewProfile validates w against the schema and builds the scoring
// profile. nil (or all-ones) weights produce the unit profile.
func NewProfile(schema profile.Schema, w Weights) (*Profile, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if err := w.Validate(schema); err != nil {
		return nil, err
	}
	if w.IsUnit() {
		return &Profile{}, nil
	}
	return &Profile{
		weights: append(Weights(nil), w...),
		binding: w.Canonical(),
	}, nil
}

// IsUnit reports whether this profile performs no scaling.
func (p *Profile) IsUnit() bool { return p.weights == nil }

// KeyBinding returns the material to fold into fuzzy key derivation: the
// canonical weight encoding, or nil for unit (legacy keys).
func (p *Profile) KeyBinding() []byte {
	if p.binding == nil {
		return nil
	}
	return append([]byte(nil), p.binding...)
}

// Score turns entropy-mapped plaintexts into scored plaintexts:
// out_i = w_i·mapped_i. The unit profile returns mapped itself — no copy,
// no allocation, bytes downstream identical to the pre-scoring pipeline.
// Weighted profiles return fresh big.Ints and never mutate the input.
func (p *Profile) Score(mapped []*big.Int) ([]*big.Int, error) {
	if p.weights == nil {
		return mapped, nil
	}
	if len(mapped) != len(p.weights) {
		return nil, fmt.Errorf("scoring: %d mapped values for %d weights", len(mapped), len(p.weights))
	}
	out := make([]*big.Int, len(mapped))
	var wBig big.Int
	for i, m := range mapped {
		if m == nil {
			return nil, errors.New("scoring: nil mapped value")
		}
		if m.Sign() < 0 {
			return nil, fmt.Errorf("scoring: negative mapped value at attribute %d", i)
		}
		wBig.SetUint64(uint64(p.weights[i]))
		out[i] = new(big.Int).Mul(m, &wBig)
	}
	return out, nil
}
