// Package ope implements deterministic order-preserving symmetric encryption
// (OPE) in the style of Boldyreva, Chenette, Lee and O'Neill (EUROCRYPT'09),
// the construction CryptDB popularized and the PPE instance S-MATCH builds
// on: for any two plaintexts mi >= mj, the ciphertexts satisfy ci >= cj, so
// an untrusted server can run comparison-based matching directly on
// ciphertexts.
//
// The scheme lazily samples a random order-preserving function from domain
// [0, 2^M) to range [0, 2^N) by binary recursion on the range: each step
// halves the range and draws, from per-node PRF coins, the number x of
// domain points mapped into the lower half. x follows the hypergeometric
// distribution HGD(d, r, r/2) where d and r are the current domain and
// range sizes; the recursion then descends into the half containing the
// plaintext. Because the initial range is a power of two and every split is
// exact, r stays a power of two throughout, which makes the hypergeometric
// mean an exact shift (d/2) and keeps the per-level cost at a hash plus a
// few shifts — the property that lets 2048-bit encryptions run in
// milliseconds.
//
// Determinism, strict order preservation and invertibility hold for any
// sampler that respects the hypergeometric support bounds; the sampler's
// fidelity to the exact distribution affects only the security argument
// (POPF-CCA closeness), exactly as in the reference float-based
// implementations. Per-node coins chain down the recursion tree
// (seed_child = SHA-256(seed_parent, branch)), so coins depend only on the
// key and the node — never on the plaintext — which is what makes
// ciphertexts of different plaintexts mutually consistent.
//
// Every Encrypt and Decrypt runs the one descent from the root; nothing is
// cached across calls. At N == M (the paper's setting and this repository's
// default) the root is already the identity and a call costs a range check
// plus one addition.
package ope

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/big"
	"sync"

	"smatch/internal/prf"
)

// Common errors returned by the scheme.
var (
	ErrPlaintextRange  = errors.New("ope: plaintext outside domain")
	ErrCiphertextRange = errors.New("ope: ciphertext outside range")
	ErrNotInImage      = errors.New("ope: ciphertext is not in the image of the encryption function")
)

// Params fixes the domain and range of the order-preserving function.
type Params struct {
	// PlaintextBits M: the domain is [0, 2^M).
	PlaintextBits uint
	// CiphertextBits N: the range is [0, 2^N). Must satisfy N >= M.
	// With N == M the only order-preserving injection is the identity;
	// the paper's evaluation uses this degenerate setting ("the ciphertext
	// range in OPE is set as the same as the plaintext range") for cost
	// measurements, and it is supported, but real deployments want
	// N >= M + expansion for security.
	CiphertextBits uint
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.PlaintextBits == 0 {
		return errors.New("ope: PlaintextBits must be positive")
	}
	if p.CiphertextBits < p.PlaintextBits {
		return fmt.Errorf("ope: CiphertextBits (%d) < PlaintextBits (%d)", p.CiphertextBits, p.PlaintextBits)
	}
	return nil
}

// Scheme is a deterministic OPE instance under a fixed key. It is immutable
// after construction and safe for concurrent use; each descent works in its
// own pooled frame. Building one costs a single SHA-256.
type Scheme struct {
	params     Params
	domainSize *big.Int // 2^M
	rangeSize  *big.Int // 2^N
	rootSeed   [32]byte
}

// NewScheme constructs an OPE instance. The key should be 32 bytes of
// high-entropy material; in S-MATCH it is the OPRF-hardened profile key.
func NewScheme(key []byte, params Params) (*Scheme, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(key) == 0 {
		return nil, errors.New("ope: empty key")
	}
	s := &Scheme{
		params:     params,
		domainSize: new(big.Int).Lsh(bigOne, params.PlaintextBits),
		rangeSize:  new(big.Int).Lsh(bigOne, params.CiphertextBits),
	}
	h := sha256.New()
	h.Write([]byte("smatch/ope/root/"))
	h.Write([]byte{byte(params.PlaintextBits >> 8), byte(params.PlaintextBits),
		byte(params.CiphertextBits >> 8), byte(params.CiphertextBits)})
	h.Write(key)
	h.Sum(s.rootSeed[:0])
	return s, nil
}

// Params returns the scheme parameters.
func (s *Scheme) Params() Params { return s.params }

// frame holds one descent's node state plus the scratch big.Ints the
// per-level arithmetic works in, pooled so a steady-state Encrypt allocates
// only its result.
type frame struct {
	dlo, d, rlo            big.Int // current domain interval and range start
	rbits                  uint    // the current range is [rlo, rlo+2^rbits)
	seed                   [32]byte
	x, t                   big.Int // split point; descend/mid temp
	half, lo, hi, rd, mask big.Int // computeSplit / sampleLeaf scratch
}

var framePool = sync.Pool{New: func() any { return new(frame) }}

// root takes a pooled frame and places it at the root node. The caller
// returns it to framePool.
func (s *Scheme) root() *frame {
	fr := framePool.Get().(*frame)
	fr.dlo.SetInt64(0)
	fr.d.Set(s.domainSize)
	fr.rlo.SetInt64(0)
	fr.rbits = s.params.CiphertextBits
	fr.seed = s.rootSeed
	return fr
}

// childSeed derives the coin seed for one branch.
func childSeed(parent [32]byte, branch byte) [32]byte {
	var in [33]byte
	copy(in[:32], parent[:])
	in[32] = branch
	return sha256.Sum256(in[:])
}

// Encrypt maps plaintext m in [0, 2^M) to its ciphertext in [0, 2^N).
func (s *Scheme) Encrypt(m *big.Int) (*big.Int, error) {
	if m.Sign() < 0 || m.Cmp(s.domainSize) >= 0 {
		return nil, ErrPlaintextRange
	}
	fr := s.root()
	defer framePool.Put(fr)
	for {
		if identity(&fr.d, fr.rbits) {
			// d == r: the map on this node is forced to the identity.
			off := new(big.Int).Sub(m, &fr.dlo)
			return off.Add(off, &fr.rlo), nil
		}
		if fr.d.Cmp(bigOne) == 0 {
			return sampleLeaf(fr), nil
		}
		computeSplit(fr)
		var branch byte
		if m.Cmp(&fr.x) > 0 {
			branch = 1
		}
		fr.descend(branch)
	}
}

// Decrypt inverts Encrypt. It returns ErrNotInImage when c is inside the
// range but was never produced by Encrypt under this key.
func (s *Scheme) Decrypt(c *big.Int) (*big.Int, error) {
	if c.Sign() < 0 || c.Cmp(s.rangeSize) >= 0 {
		return nil, ErrCiphertextRange
	}
	fr := s.root()
	defer framePool.Put(fr)
	for {
		if fr.d.Sign() == 0 {
			// The ciphertext landed in a range half holding no domain
			// points: it cannot have been produced by Encrypt.
			return nil, ErrNotInImage
		}
		if identity(&fr.d, fr.rbits) {
			off := new(big.Int).Sub(c, &fr.rlo)
			return off.Add(off, &fr.dlo), nil
		}
		if fr.d.Cmp(bigOne) == 0 {
			if sampleLeaf(fr).Cmp(c) != 0 {
				return nil, ErrNotInImage
			}
			return new(big.Int).Set(&fr.dlo), nil
		}
		computeSplit(fr)
		// mid: the highest range value of the lower half.
		mid := fr.t.Lsh(bigOne, fr.rbits-1)
		mid.Sub(mid, bigOne)
		mid.Add(mid, &fr.rlo)
		var branch byte
		if c.Cmp(mid) > 0 {
			branch = 1
		}
		fr.descend(branch)
	}
}

// EncryptUint64 is a convenience wrapper for small domains.
func (s *Scheme) EncryptUint64(m uint64) (*big.Int, error) {
	return s.Encrypt(new(big.Int).SetUint64(m))
}

// identity reports whether the node's map is forced (d == r).
func identity(d *big.Int, rbits uint) bool {
	return d.BitLen() == int(rbits)+1 && isPowerOfTwo(d)
}

func isPowerOfTwo(v *big.Int) bool {
	if v.Sign() <= 0 {
		return false
	}
	return v.TrailingZeroBits() == uint(v.BitLen()-1)
}

// descend moves the frame to the branch child of its node, splitting at
// fr.x. Left keeps domain [dlo, x] over the lower range half; right keeps
// [x+1, dhi] over the upper half. The child's coins chain from the
// parent's seed.
func (fr *frame) descend(branch byte) {
	fr.rbits--
	fr.seed = childSeed(fr.seed, branch)
	if branch == 0 {
		fr.d.Sub(&fr.x, &fr.dlo)
		fr.d.Add(&fr.d, bigOne)
		return
	}
	fr.t.Sub(&fr.x, &fr.dlo)
	fr.t.Add(&fr.t, bigOne) // domain points shed to the left: x+1-dlo
	fr.d.Sub(&fr.d, &fr.t)
	fr.dlo.Add(&fr.x, bigOne)
	fr.rlo.Add(&fr.rlo, fr.t.Lsh(bigOne, fr.rbits))
}

// computeSplit draws the hypergeometric count of domain points the frame's
// node assigns to the lower half and writes the highest domain value mapped
// there (dlo + count - 1) into fr.x. The count respects the support bounds
// max(0, d - r/2) <= count <= min(d, r/2). All intermediates live in the
// frame's scratch integers.
func computeSplit(fr *frame) {
	dst, dlo, d, rbits := &fr.x, &fr.dlo, &fr.d, fr.rbits
	half := fr.half.Lsh(bigOne, rbits-1) // g = r/2

	// Support bounds.
	lo := fr.lo.Sub(d, half) // d - r/2
	if lo.Sign() < 0 {
		lo.SetInt64(0)
	}
	hi := fr.hi.Set(d)
	if hi.Cmp(half) > 0 {
		hi.Set(half)
	}

	if lo.Cmp(hi) == 0 {
		dst.Set(lo)
	} else {
		// mean = d/2 exactly (g/r = 1/2); variance = d(r-d)/(4(r-1)),
		// computed in log2 space.
		dst.Rsh(d, 1)
		rd := fr.rd.Lsh(bigOne, rbits)
		rd.Sub(rd, d) // r - d
		var sigmaLog2 float64
		if rd.Sign() > 0 {
			varLog2 := log2Big(d) + log2Big(rd) - 2 - float64(rbits)
			sigmaLog2 = varLog2 / 2
		} else {
			sigmaLog2 = math.Inf(-1)
		}
		z := seedNormal(&fr.seed)
		dst.Add(dst, scaledOffset(z, sigmaLog2))
		if dst.Cmp(lo) < 0 {
			dst.Set(lo)
		}
		if dst.Cmp(hi) > 0 {
			dst.Set(hi)
		}
	}
	dst.Add(dst, dlo)
	dst.Sub(dst, bigOne)
}

// seedNormal draws one standard normal variate from the node seed via
// Box-Muller over SHA-256(seed || 'z').
func seedNormal(seed *[32]byte) float64 {
	var in [33]byte
	copy(in[:32], seed[:])
	in[32] = 'z'
	block := sha256.Sum256(in[:])
	u1 := float64(binary.BigEndian.Uint64(block[0:8])>>11) / (1 << 53)
	u2 := float64(binary.BigEndian.Uint64(block[8:16])>>11) / (1 << 53)
	if u1 <= 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

var leafLabel = []byte("leaf")

// sampleLeaf deterministically picks the ciphertext for the frame's single
// domain point uniformly within its 2^rbits-sized range.
func sampleLeaf(fr *frame) *big.Int {
	rbits := fr.rbits
	stream := prf.New(fr.seed[:], leafLabel)
	nb := int(rbits+7) / 8
	var stack [512]byte
	var buf []byte
	if nb <= len(stack) {
		buf = stack[:nb]
	} else {
		buf = make([]byte, nb)
	}
	stream.Read(buf)
	off := new(big.Int).SetBytes(buf)
	// Mask down to rbits bits: the range size is an exact power of two,
	// so masking gives a uniform draw with no rejection loop.
	mask := fr.mask.Lsh(bigOne, rbits)
	mask.Sub(mask, bigOne)
	off.And(off, mask)
	return off.Add(off, &fr.rlo)
}

var bigOne = big.NewInt(1)

// scaledOffset computes round(z * 2^sigmaLog2) as a big integer without
// overflowing float64 for large exponents.
func scaledOffset(z, sigmaLog2 float64) *big.Int {
	if math.IsInf(sigmaLog2, -1) || z == 0 {
		return new(big.Int)
	}
	if sigmaLog2 <= 52 {
		return big.NewInt(int64(math.Round(z * math.Exp2(sigmaLog2))))
	}
	shift := uint(sigmaLog2 - 52)
	mant := int64(math.Round(z * math.Exp2(sigmaLog2-float64(shift))))
	out := big.NewInt(mant)
	return out.Lsh(out, shift)
}

// log2Big computes log2 of a positive big integer without overflow.
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
