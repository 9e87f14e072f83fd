// Package entropy implements the paper's Section IV analysis machinery
// (Shannon entropy of social attributes, landmark-attribute detection) and
// the Section VI "Entropy Increase" step: the one-to-N big-jump mapping that
// flattens a low-entropy attribute distribution over a k-bit message space
// before OPE encryption.
//
// Big-jump mapping layout for an attribute with n values: the 2^k message
// space is split into n equal buckets; value j owns the sub-range
// [j*W, j*W + R) with W = 2^k/n and R = 2^k/(2n), satisfying the paper's
// R < 2^k/(2n-1) constraint and guaranteeing a "big jump" between the last
// string of one value and the first string of the next. Value j is assigned
// s_j ∝ p_j strings spread evenly across its sub-range; a user with value j
// picks one uniformly, so every individual string appears with the same
// probability and the mapped distribution is (near-)uniform over the string
// set.
package entropy

import (
	"errors"
	"fmt"
	"math"
	"math/big"

	"smatch/internal/prf"
)

// Shannon computes H(A) = -sum_i p_i log2 p_i (the paper's Equation 1)
// from a probability vector. Zero entries are skipped.
func Shannon(probs []float64) float64 {
	var h float64
	for _, p := range probs {
		if p > 0 {
			h -= p * math.Log2(p)
		}
	}
	return h
}

// EmpiricalProbs converts value counts into a probability vector.
func EmpiricalProbs(counts []int) []float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	probs := make([]float64, len(counts))
	if total == 0 {
		return probs
	}
	for i, c := range counts {
		probs[i] = float64(c) / float64(total)
	}
	return probs
}

// IsLandmark reports whether an attribute with the given value distribution
// is a landmark attribute per Definition 2: some value's probability
// exceeds the threshold tau.
func IsLandmark(probs []float64, tau float64) bool {
	for _, p := range probs {
		if p >= tau {
			return true
		}
	}
	return false
}

// Mapper performs the big-jump one-to-N mapping for a single attribute.
// Construction fixes the layout; Map draws the per-user random string
// choice from the supplied coin stream. Immutable after construction.
type Mapper struct {
	k      uint
	n      int        // number of attribute values
	width  *big.Int   // bucket width 2^k / n
	r      *big.Int   // sub-range width 2^k / (2n)
	counts []*big.Int // s_j: strings allotted to value j
	probs  []float64
}

// NewMapper builds the mapping for an attribute whose values are
// distributed according to probs (probs[j] = P[value = j]), over a k-bit
// message space. Every value receives at least one string.
func NewMapper(probs []float64, k uint) (*Mapper, error) {
	n := len(probs)
	if n < 2 {
		return nil, errors.New("entropy: attribute needs at least 2 values")
	}
	if k < 4 {
		return nil, fmt.Errorf("entropy: message space of %d bits too small", k)
	}
	var sum float64
	for j, p := range probs {
		if p < 0 {
			return nil, fmt.Errorf("entropy: negative probability at value %d", j)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		return nil, fmt.Errorf("entropy: probabilities sum to %v, want 1", sum)
	}
	space := new(big.Int).Lsh(big.NewInt(1), k)
	width := new(big.Int).Div(space, big.NewInt(int64(n)))
	r := new(big.Int).Div(space, big.NewInt(int64(2*n)))
	if r.Sign() == 0 {
		return nil, fmt.Errorf("entropy: 2^%d space cannot hold %d big-jump buckets", k, n)
	}
	m := &Mapper{
		k:      k,
		n:      n,
		width:  width,
		r:      r,
		counts: make([]*big.Int, n),
		probs:  append([]float64(nil), probs...),
	}
	// s_j = max(1, floor(p_j * R)), computed in big arithmetic via a
	// 2^30-denominator rational approximation of p_j.
	const denomBits = 30
	denom := big.NewInt(1 << denomBits)
	for j, p := range probs {
		num := big.NewInt(int64(p * (1 << denomBits)))
		s := new(big.Int).Mul(r, num)
		s.Div(s, denom)
		if s.Sign() <= 0 {
			s.SetInt64(1)
		}
		if s.Cmp(r) > 0 {
			s.Set(r)
		}
		m.counts[j] = s
	}
	return m, nil
}

// Strings returns s_j, the number of binary strings assigned to value j.
func (m *Mapper) Strings(j int) *big.Int { return new(big.Int).Set(m.counts[j]) }

// Map maps attribute value j to one of its s_j strings, chosen uniformly
// using coins. Mapping the same value twice generally yields different
// strings — that is the point of the one-to-N construction.
func (m *Mapper) Map(j int, coins *prf.Stream) (*big.Int, error) {
	if j < 0 || j >= m.n {
		return nil, fmt.Errorf("entropy: value %d outside [0, %d)", j, m.n)
	}
	idx := coins.BigIntn(m.counts[j])
	// Spread the s_j strings evenly over [j*W, j*W + R):
	// string i sits at j*W + floor(i * R / s_j).
	off := new(big.Int).Mul(idx, m.r)
	off.Div(off, m.counts[j])
	base := new(big.Int).Mul(m.width, big.NewInt(int64(j)))
	return off.Add(off, base), nil
}

// Unmap recovers the attribute value a mapped string encodes, for
// correctness tests and for the leakage analysis (the attacker does exactly
// this once it learns the layout).
func (m *Mapper) Unmap(s *big.Int) (int, error) {
	if s.Sign() < 0 {
		return 0, errors.New("entropy: negative mapped value")
	}
	j := new(big.Int).Div(s, m.width)
	if !j.IsInt64() || j.Int64() >= int64(m.n) {
		return 0, fmt.Errorf("entropy: mapped value outside message space")
	}
	return int(j.Int64()), nil
}

// MappedEntropy returns the Shannon entropy, in bits, of the mapped
// attribute: H = -sum_j p_j (log2 p_j - log2 s_j). With s_j ∝ p_j this
// approaches log2(R) = k - log2(2n), i.e. within a constant of the perfect
// k-bit entropy, which is the effect Figure 4(a) plots.
func (m *Mapper) MappedEntropy() float64 {
	var h float64
	for j, p := range m.probs {
		if p <= 0 {
			continue
		}
		h += p * (log2Big(m.counts[j]) - math.Log2(p))
	}
	return h
}

// ChainEntropy models the per-slot entropy after attribute chaining: the
// chain places each attribute at a random position, so an observer of one
// slot faces a uniform mixture of the d mapped attribute distributions.
// Because the mappers' string supports are (essentially) disjoint across
// different bucket layouts, the mixture entropy is log2(d) plus the average
// mapped entropy, clamped to the k-bit ceiling.
func ChainEntropy(mappers []*Mapper) (float64, error) {
	if len(mappers) == 0 {
		return 0, errors.New("entropy: no mappers")
	}
	k := mappers[0].k
	var sum float64
	for _, m := range mappers {
		if m.k != k {
			return 0, errors.New("entropy: mappers disagree on message-space size")
		}
		sum += m.MappedEntropy()
	}
	h := math.Log2(float64(len(mappers))) + sum/float64(len(mappers))
	if max := float64(k); h > max {
		h = max
	}
	return h, nil
}

// log2Big computes log2 of a positive big integer without overflowing
// float64 for multi-thousand-bit values.
func log2Big(v *big.Int) float64 {
	bl := v.BitLen()
	if bl == 0 {
		return math.Inf(-1)
	}
	if bl <= 53 {
		return math.Log2(float64(v.Int64()))
	}
	shift := uint(bl - 53)
	top := new(big.Int).Rsh(v, shift)
	return math.Log2(float64(top.Int64())) + float64(shift)
}
