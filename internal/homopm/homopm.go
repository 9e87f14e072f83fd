// Package homopm implements the comparison baseline from the paper's
// evaluation: homoPM (Zhang et al., INFOCOM'12), fine-grained profile
// matching built on the Paillier homomorphic cryptosystem.
//
// Cost structure, which is what Figures 4(c-e) and 5(a-c) compare:
//
//   - Client (offline): d Paillier encryptions of the attribute values —
//     expensive modular exponentiations that grow with the
//     plaintext/modulus size.
//   - Client (query): d encryptions of the negated, blinded query
//     attributes.
//   - Server (online): for every candidate user, d homomorphic additions
//     (ciphertext modular multiplications) plus one rerandomization to
//     aggregate the blinded attribute differences — Θ(N·d) modular
//     multiplications per query, the term that dominates the paper's
//     server-side curves and cannot be done offline.
//   - Querier: decrypts one aggregate per candidate, unblinds and ranks.
//
// The querier-side blinding delta shifts every candidate's aggregate by the
// same amount, so the comparison relationship among plaintexts survives —
// mirroring homoPM's blinded-distance design — while the server never sees
// an unblinded difference even if it could decrypt.
package homopm

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"sort"
	"sync"

	"smatch/internal/paillier"
	"smatch/internal/profile"
)

// System holds the deployment-wide Paillier key pair and plays the
// decrypting querier role in this reproduction.
type System struct {
	key *paillier.PrivateKey
	dim int
}

// NewSystem generates a deployment with a modulus of at least minModulusBits
// (and large enough to hold plaintextBits-sized attribute values with
// headroom for blinded sums) for d-attribute profiles.
func NewSystem(plaintextBits uint, d int, minModulusBits int) (*System, error) {
	if d < 1 {
		return nil, fmt.Errorf("homopm: dimension %d must be >= 1", d)
	}
	bits := int(plaintextBits) + 64
	if bits < minModulusBits {
		bits = minModulusBits
	}
	key, err := paillier.GenerateKey(bits, nil)
	if err != nil {
		return nil, err
	}
	return &System{key: key, dim: d}, nil
}

// PublicKey returns the encryption key users and the server work with.
func (s *System) PublicKey() *paillier.PublicKey { return s.key.Public() }

// Upload is one user's stored ciphertext vector.
type Upload struct {
	ID  profile.ID
	Cts []*big.Int // Enc(a_i), one per attribute
}

// EncryptProfile runs the client-side offline step: encrypt every attribute
// value. The values may be raw attribute integers or the k-bit
// entropy-increased strings — the bench harness passes the same mapped
// workload both schemes see.
func (s *System) EncryptProfile(id profile.ID, values []*big.Int) (Upload, error) {
	if len(values) != s.dim {
		return Upload{}, fmt.Errorf("homopm: %d values for dimension %d", len(values), s.dim)
	}
	cts := make([]*big.Int, s.dim)
	for i, v := range values {
		vv := new(big.Int).Mod(v, s.key.N)
		ct, err := s.key.Encrypt(vv, nil)
		if err != nil {
			return Upload{}, fmt.Errorf("homopm: encrypting attribute %d: %w", i, err)
		}
		cts[i] = ct
	}
	return Upload{ID: id, Cts: cts}, nil
}

// Query is the querier's encrypted request: Enc(-(q_i + delta)) per
// attribute, with the blinding delta kept querier-side for unblinding.
type Query struct {
	ID    profile.ID
	Cts   []*big.Int
	delta *big.Int
}

// EncryptQuery runs the client-side query step: blind each query value
// with a fresh delta, negate under the homomorphism, and encrypt.
func (s *System) EncryptQuery(id profile.ID, values []*big.Int) (Query, error) {
	if len(values) != s.dim {
		return Query{}, fmt.Errorf("homopm: %d values for dimension %d", len(values), s.dim)
	}
	delta, err := rand.Int(rand.Reader, big.NewInt(1<<30))
	if err != nil {
		return Query{}, fmt.Errorf("homopm: sampling blind: %w", err)
	}
	cts := make([]*big.Int, s.dim)
	for i, v := range values {
		blinded := new(big.Int).Add(v, delta)
		neg := new(big.Int).Neg(blinded)
		neg.Mod(neg, s.key.N)
		ct, err := s.key.Encrypt(neg, nil)
		if err != nil {
			return Query{}, fmt.Errorf("homopm: encrypting query attribute %d: %w", i, err)
		}
		cts[i] = ct
	}
	return Query{ID: id, Cts: cts, delta: delta}, nil
}

// Aggregate is the server's per-candidate output: the encrypted sum of
// blinded attribute differences.
type Aggregate struct {
	ID profile.ID
	Ct *big.Int
}

// Server stores uploads and answers queries with homomorphic aggregation.
// Safe for concurrent use.
type Server struct {
	pk *paillier.PublicKey
	mu sync.RWMutex
	db map[profile.ID]Upload
}

// NewServer creates a server for a deployment's public key.
func NewServer(pk *paillier.PublicKey) *Server {
	return &Server{pk: pk, db: make(map[profile.ID]Upload)}
}

// Store saves (or replaces) a user's encrypted profile.
func (sv *Server) Store(u Upload) error {
	if u.ID == 0 || len(u.Cts) == 0 {
		return errors.New("homopm: invalid upload")
	}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	sv.db[u.ID] = u
	return nil
}

// NumUsers returns the stored profile count.
func (sv *Server) NumUsers() int {
	sv.mu.RLock()
	defer sv.mu.RUnlock()
	return len(sv.db)
}

// Match performs the online server computation: for every stored candidate,
// d ciphertext multiplications aggregate Enc(sum_i (a_i - q_i - delta))
// plus one rerandomization. This is the Θ(N·d) modular-multiplication cost
// the paper attributes to homomorphic schemes.
func (sv *Server) Match(q Query) ([]Aggregate, error) {
	if len(q.Cts) == 0 {
		return nil, errors.New("homopm: empty query")
	}
	sv.mu.RLock()
	defer sv.mu.RUnlock()
	out := make([]Aggregate, 0, len(sv.db))
	for id, up := range sv.db {
		if id == q.ID {
			continue
		}
		if len(up.Cts) != len(q.Cts) {
			return nil, fmt.Errorf("homopm: user %d has %d attributes, query has %d", id, len(up.Cts), len(q.Cts))
		}
		acc, err := sv.pk.AddCipher(up.Cts[0], q.Cts[0])
		if err != nil {
			return nil, err
		}
		for i := 1; i < len(q.Cts); i++ {
			diff, err := sv.pk.AddCipher(up.Cts[i], q.Cts[i])
			if err != nil {
				return nil, err
			}
			if acc, err = sv.pk.AddCipher(acc, diff); err != nil {
				return nil, err
			}
		}
		if acc, err = sv.pk.Rerandomize(acc, nil); err != nil {
			return nil, err
		}
		out = append(out, Aggregate{ID: id, Ct: acc})
	}
	return out, nil
}

// Rank decrypts the aggregates, unblinds them with the query's delta, and
// returns the k candidates with the smallest absolute aggregate difference
// (querier-side step).
func (s *System) Rank(q Query, aggs []Aggregate, k int) ([]profile.ID, error) {
	if k < 1 {
		return nil, fmt.Errorf("homopm: k=%d must be >= 1", k)
	}
	if q.delta == nil {
		return nil, errors.New("homopm: query missing blinding delta (not produced by EncryptQuery?)")
	}
	type scored struct {
		id   profile.ID
		dist *big.Int
	}
	half := new(big.Int).Rsh(s.key.N, 1)
	shift := new(big.Int).Mul(q.delta, big.NewInt(int64(s.dim)))
	out := make([]scored, 0, len(aggs))
	for _, a := range aggs {
		m, err := s.key.Decrypt(a.Ct)
		if err != nil {
			return nil, fmt.Errorf("homopm: decrypting aggregate for %d: %w", a.ID, err)
		}
		// Undo the blinding: true difference = m + d*delta (mod N),
		// interpreted as a signed value.
		m.Add(m, shift)
		m.Mod(m, s.key.N)
		if m.Cmp(half) > 0 {
			m.Sub(m, s.key.N)
		}
		m.Abs(m)
		out = append(out, scored{id: a.ID, dist: m})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].dist.Cmp(out[j].dist) < 0 })
	if k > len(out) {
		k = len(out)
	}
	ids := make([]profile.ID, k)
	for i := 0; i < k; i++ {
		ids[i] = out[i].id
	}
	return ids, nil
}
