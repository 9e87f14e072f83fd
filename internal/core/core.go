// Package core assembles the S-MATCH scheme from its substrates, following
// the paper's Definition 5 and Figure 3: S-MATCH = (Keygen, InitData, Enc,
// Match, Auth, Vf). Keygen, InitData, Enc, Auth and Vf run on the client
// (mobile device); Match runs on the untrusted server (internal/match).
//
// A System captures the service-wide public configuration every participant
// shares: the profile schema, the published per-attribute value statistics
// the entropy-increase mapping is built from, the scheme parameters, the
// OPRF service public key and the verification group. Each user device is a
// Client bound to a System plus its own secret randomness seed.
package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"sync"

	"smatch/internal/chain"
	"smatch/internal/entropy"
	"smatch/internal/group"
	"smatch/internal/keygen"
	"smatch/internal/match"
	"smatch/internal/ope"
	"smatch/internal/oprf"
	"smatch/internal/prf"
	"smatch/internal/profile"
	"smatch/internal/scoring"
	"smatch/internal/verify"
)

// DefaultTopK is the paper's evaluation setting for the number of query
// results ("the number of query results is set to 5").
const DefaultTopK = 5

// vfMemoCap bounds a Client's Vf memo: 4 096 digests, about 170 KB with
// the map's overhead. A full memo is replaced by an empty one.
const vfMemoCap = 4096

// Params are the scheme's tunable parameters.
type Params struct {
	// PlaintextBits is k, the per-attribute message-space size after the
	// entropy increase. The paper sweeps 64..2048.
	PlaintextBits uint
	// CiphertextBits is the OPE range size N. Zero means N = M, the
	// paper's evaluation setting ("the ciphertext range in OPE is set as
	// the same as the plaintext range"); secure deployments should add
	// expansion bits.
	CiphertextBits uint
	// Theta is the RS decoder threshold from Definition 3.
	Theta int
	// TopK is the number of matching results per query.
	TopK int
	// DisableRS skips the Reed-Solomon snap in key generation (ablation
	// switch; see internal/keygen.Options).
	DisableRS bool
	// Weights are the deployment's per-attribute matching priorities
	// (nil = unweighted). They are applied client-side only — each
	// entropy-mapped value is integer-scaled before OPE sealing — so the
	// server's order-sum distance becomes the weighted distance while the
	// wire and storage formats stay unchanged. The OPE plaintext and
	// ciphertext spaces are widened by Weights.ExtraBits() automatically;
	// the canonical weight encoding is folded into key derivation so
	// differently-weighted deployments never share buckets. See
	// internal/scoring.
	Weights scoring.Weights
}

// WithDefaults fills zero fields with the paper's evaluation settings.
func (p Params) WithDefaults() Params {
	if p.PlaintextBits == 0 {
		p.PlaintextBits = 64
	}
	if p.CiphertextBits == 0 {
		p.CiphertextBits = p.PlaintextBits
	}
	if p.Theta == 0 {
		p.Theta = 8
	}
	if p.TopK == 0 {
		p.TopK = DefaultTopK
	}
	return p
}

// Validate checks parameter sanity after defaulting. Weight-vs-schema
// agreement needs the schema and is checked by NewSystem; only the weight
// bounds are validated here.
func (p Params) Validate() error {
	if _, err := p.EffectiveOPE(); err != nil {
		return err
	}
	if p.Theta < 1 {
		return fmt.Errorf("core: theta %d must be >= 1", p.Theta)
	}
	if p.TopK < 1 {
		return fmt.Errorf("core: topK %d must be >= 1", p.TopK)
	}
	return nil
}

// EffectiveOPE returns the OPE parameters the pipeline actually runs:
// PlaintextBits/CiphertextBits are the per-attribute budgets before
// scoring, and both are widened by the weight vector's ExtraBits so every
// scaled value w_i·A'_i fits. Unit weights widen by zero, keeping legacy
// parameters.
func (p Params) EffectiveOPE() (ope.Params, error) {
	if err := p.Weights.CheckBounds(); err != nil {
		return ope.Params{}, err
	}
	extra := p.Weights.ExtraBits()
	eff := ope.Params{
		PlaintextBits:  p.PlaintextBits + extra,
		CiphertextBits: p.CiphertextBits + extra,
	}
	if err := (ope.Params{PlaintextBits: p.PlaintextBits, CiphertextBits: p.CiphertextBits}).Validate(); err != nil {
		return ope.Params{}, err
	}
	if err := eff.Validate(); err != nil {
		return ope.Params{}, err
	}
	return eff, nil
}

// System is the shared public configuration of one S-MATCH deployment.
// Immutable and safe for concurrent use.
type System struct {
	schema    profile.Schema
	params    Params
	opeParams ope.Params // effective ranges: params widened by scoring
	scorer    *scoring.Profile
	oprfPK    oprf.PublicKey
	verifier  *verify.Verifier
	mappers   []*entropy.Mapper
}

// NewSystem builds a deployment configuration. dist[i] is the published
// value distribution of attribute i (the provider-side statistics the
// entropy-increase mapping needs); grp may be nil for the default 2048-bit
// verification group.
func NewSystem(schema profile.Schema, dist [][]float64, params Params, oprfPK oprf.PublicKey, grp *group.Group) (*System, error) {
	params = params.WithDefaults()
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	scorer, err := scoring.NewProfile(schema, params.Weights)
	if err != nil {
		return nil, err
	}
	opeParams, err := params.EffectiveOPE()
	if err != nil {
		return nil, err
	}
	if len(dist) != schema.NumAttrs() {
		return nil, fmt.Errorf("core: %d distributions for %d attributes", len(dist), schema.NumAttrs())
	}
	if err := oprfPK.Validate(); err != nil {
		return nil, err
	}
	verifier, err := verify.New(grp)
	if err != nil {
		return nil, err
	}
	mappers := make([]*entropy.Mapper, len(dist))
	for i, probs := range dist {
		if len(probs) != schema.Attrs[i].NumValues {
			return nil, fmt.Errorf("core: attribute %d has %d values but %d probabilities", i, schema.Attrs[i].NumValues, len(probs))
		}
		m, err := entropy.NewMapper(probs, params.PlaintextBits)
		if err != nil {
			return nil, fmt.Errorf("core: mapper for attribute %d: %w", i, err)
		}
		mappers[i] = m
	}
	return &System{
		schema:    schema,
		params:    params,
		opeParams: opeParams,
		scorer:    scorer,
		oprfPK:    oprfPK,
		verifier:  verifier,
		mappers:   mappers,
	}, nil
}

// Params returns the scheme parameters (with defaults applied).
func (s *System) Params() Params { return s.params }

// Verifier exposes the verification protocol instance.
func (s *System) Verifier() *verify.Verifier { return s.verifier }

// Client is one user's device: the client-side algorithms of Figure 3.
// Safe for concurrent use.
//
// Keygen keeps, per user ID, the last seed K' = H(T(u)) it hardened and
// the key that came back. A profile whose fuzzy vector has not moved gets
// that key again with no OPRF round trip: the OPRF is a deterministic
// function of K' under the System's public key, and the kept key passed
// the OPRF's check when it was made.
//
// The entry also keeps the last blob Auth made for that ID under that
// key. Auth re-sends it while Keygen keeps returning the same key, so a
// drift within the cell runs no OPRF round and no p^s.
//
// A device that registers more than once under a new key computes Auth's
// p^s off the register path: the first keyed Auth arms the client, and
// from then on each keyed Auth, as it returns, starts one fill of the
// commitment slot, which the next keyed Auth takes. A client that runs
// Auth once never fills the slot.
//
// Vf remembers the (key, ID, blob) triples it accepted, so a result the
// server returns again is not verified again.
type Client struct {
	sys    *System
	gen    *keygen.Generator
	secret []byte

	mu      sync.Mutex
	keys    map[profile.ID]memo            // the last key Keygen made for each user ID
	armed   bool                           // a keyed Auth has run
	next    chan filled                    // the commitment slot: nil when empty
	filling bool                           // a fill started and no Auth has received it yet
	vfs     map[[sha256.Size]byte]struct{} // vfDigest of each triple Verify accepted
}

// memo is one Keygen result, the seed K' and the key it hardened to, and
// the blob the last successful Auth made under that key (nil before one).
type memo struct {
	seed []byte
	key  *keygen.Key
	blob []byte
}

// filled is one commitment fill's result.
type filled struct {
	c   verify.Commitment
	err error
}

// NewClient binds a device to the system. eval is the OPRF transport (the
// in-process *oprf.Server or a network client); secret seeds the device's
// local randomness (string choices, chain permutation) and must be unique
// per user device.
func (s *System) NewClient(eval oprf.Evaluator, secret []byte) (*Client, error) {
	if len(secret) == 0 {
		return nil, errors.New("core: empty device secret")
	}
	gen, err := keygen.NewWithOptions(s.schema, s.params.Theta, s.oprfPK, eval,
		keygen.Options{DisableRS: s.params.DisableRS, KeyBinding: s.scorer.KeyBinding()})
	if err != nil {
		return nil, err
	}
	return &Client{
		sys:    s,
		gen:    gen,
		secret: append([]byte(nil), secret...),
		keys:   make(map[profile.ID]memo),
		vfs:    make(map[[sha256.Size]byte]struct{}),
	}, nil
}

// Keygen derives the user's profile key Kup (Figure 3, Algorithm Keygen).
// It always computes K' = H(T(u)) on the device. When K' equals the seed
// this client last hardened for p.ID, it returns that key without an OPRF
// round; otherwise it runs the OPRF and, on success, keeps the new pair.
func (c *Client) Keygen(p profile.Profile) (*keygen.Key, error) {
	seed, err := c.gen.Seed(p)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	m, ok := c.keys[p.ID]
	c.mu.Unlock()
	if ok && bytes.Equal(m.seed, seed) {
		return m.key, nil
	}
	key, err := c.gen.Harden(seed)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.keys[p.ID] = memo{seed: seed, key: key}
	c.mu.Unlock()
	return key, nil
}

// InitData performs the entropy-increase step (Figure 3, Algorithm
// InitData, step 1): each raw attribute value is mapped to one of its
// k-bit strings. The choice is deterministic per (device, user, attribute)
// so periodic re-uploads don't leak movement, yet different users with the
// same value pick independent strings.
func (c *Client) InitData(p profile.Profile) ([]*big.Int, error) {
	if err := p.CheckAgainst(c.sys.schema); err != nil {
		return nil, err
	}
	mapped := make([]*big.Int, len(p.Attrs))
	// Fixed-width binary PRF label ("map\x00" + BE32(user) + BE32(attr)),
	// built once on the stack instead of a fmt.Sprintf per attribute; the
	// PRF copies the label, so the buffer is safely reused across
	// iterations. Still unique per (device, user, attribute).
	var label [12]byte
	copy(label[:4], "map\x00")
	binary.BigEndian.PutUint32(label[4:8], uint32(p.ID))
	for i, v := range p.Attrs {
		binary.BigEndian.PutUint32(label[8:12], uint32(i))
		coins := prf.New(c.secret, label[:])
		s, err := c.sys.mappers[i].Map(v, coins)
		if err != nil {
			return nil, fmt.Errorf("core: mapping attribute %d: %w", i, err)
		}
		mapped[i] = s
	}
	return mapped, nil
}

// Enc scores the mapped attributes through the system's scoring profile
// (w_i·A'_i; identity for unweighted deployments), chains them in this
// device's secret random order and OPE-encrypts them under the profile key
// (Figure 3, Algorithm InitData step 2 + Algorithm Enc, plus the
// priority-weighting extension). The scheme and codec are built from the
// key on every call, which costs one SHA-256.
func (c *Client) Enc(key *keygen.Key, id profile.ID, mapped []*big.Int) (*chain.Chain, error) {
	scheme, err := ope.NewScheme(key.Bytes(), c.sys.opeParams)
	if err != nil {
		return nil, err
	}
	// The unit profile plugs in as a nil Scorer so the unweighted seal
	// path has no indirection and stays byte-identical to the
	// pre-scoring pipeline.
	var scorer chain.Scorer
	if !c.sys.scorer.IsUnit() {
		scorer = c.sys.scorer
	}
	codec, err := chain.NewScoredCodec(scheme, scorer)
	if err != nil {
		return nil, err
	}
	// Fixed-width binary PRF label ("perm" + BE32(user)); see InitData.
	var label [8]byte
	copy(label[:4], "perm")
	binary.BigEndian.PutUint32(label[4:8], uint32(id))
	permCoins := prf.New(c.secret, label[:])
	return codec.Seal(mapped, permCoins)
}

// Auth produces the user's authentication information ciph_u (Figure 3,
// Algorithm Auth). When key is the key Keygen keeps for id and an earlier
// Auth made a blob under it, Auth returns a copy of that blob and leaves
// the slot alone: the blob depends on the key, the ID and s, not on the
// attributes. Otherwise it takes the slot's commitment, waiting for a fill
// still running, or commits inline when the slot is empty; each t1
// belongs to exactly one (key, ID). On a client that was already armed it
// starts the next fill as it returns, so the comb runs between keyed
// registrations.
func (c *Client) Auth(key *keygen.Key, id profile.ID) ([]byte, error) {
	c.mu.Lock()
	m := c.keys[id]
	c.mu.Unlock()
	if m.key == key && m.blob != nil {
		return append([]byte(nil), m.blob...), nil
	}
	v := c.sys.verifier
	kb := key.Bytes()
	if len(kb) == 0 || id == 0 {
		return v.Auth(kb, id, nil) // reports the error; the slot stays as it is
	}
	c.mu.Lock()
	ch := c.next
	c.next = nil
	armed := c.armed
	c.armed = true
	c.mu.Unlock()
	var f filled
	if ch != nil {
		f = <-ch
	} else {
		f.c, f.err = v.Commit(nil)
	}
	var blob, kept []byte
	if f.err == nil {
		blob, f.err = v.AuthFrom(kb, id, f.c, nil)
	}
	if f.err == nil {
		kept = append([]byte(nil), blob...)
	}
	c.mu.Lock()
	if m := c.keys[id]; kept != nil && m.key == key {
		m.blob = kept
		c.keys[id] = m
	}
	if ch != nil {
		c.filling = false // this Auth received the fill it took
	}
	if armed && !c.filling {
		c.filling = true
		next := make(chan filled, 1) // the fill never blocks, even if no Auth comes
		c.next = next
		go func() {
			cm, err := v.Commit(nil)
			next <- filled{cm, err}
		}()
	}
	c.mu.Unlock()
	return blob, f.err
}

// Vf verifies a matched user's authentication information (Figure 3,
// Algorithm Vf): true means the result is trustworthy — the matched user
// really holds a close profile and the blob really is theirs.
//
// Verify is a deterministic function of (key bytes, ID, blob) over the
// System's group, so a triple it accepted once is accepted again without
// running it. Only acceptances are kept: a server cannot fill the memo
// with rejections, and a rejection is always verified afresh.
func (c *Client) Vf(key *keygen.Key, id profile.ID, ciph []byte) (bool, error) {
	kb := key.Bytes()
	d := vfDigest(kb, id, ciph)
	c.mu.Lock()
	_, hit := c.vfs[d]
	c.mu.Unlock()
	if hit {
		return true, nil
	}
	ok, err := c.sys.verifier.Verify(kb, id, ciph)
	if ok {
		c.mu.Lock()
		if len(c.vfs) >= vfMemoCap {
			c.vfs = make(map[[sha256.Size]byte]struct{})
		}
		c.vfs[d] = struct{}{}
		c.mu.Unlock()
	}
	return ok, err
}

// vfBlobLen is verify's AuthLen at 2048 bits: IV 16, element 256, tag 32,
// MAC 32.
const vfBlobLen = 16 + 256 + 32 + 32

// vfDigest is SHA-256(BE32(len(key)) ‖ key ‖ BE32(ID) ‖ blob), hashed
// from a stack buffer that holds a 2048-bit blob; a longer key or blob
// spills to the heap.
func vfDigest(key []byte, id profile.ID, blob []byte) [sha256.Size]byte {
	var stack [4 + keygen.KeySize + 4 + vfBlobLen]byte
	in := binary.BigEndian.AppendUint32(stack[:0], uint32(len(key)))
	in = append(in, key...)
	in = binary.BigEndian.AppendUint32(in, uint32(id))
	in = append(in, blob...)
	return sha256.Sum256(in)
}

// PrepareUpload runs the whole client pipeline — Keygen, InitData, Enc,
// Auth — and returns the record the user sends to the untrusted server
// (message format (3): ID, h(Kup), encrypted chain, auth info) along with
// the profile key the device keeps for querying and verification.
func (c *Client) PrepareUpload(p profile.Profile) (match.Entry, *keygen.Key, error) {
	key, err := c.Keygen(p)
	if err != nil {
		return match.Entry{}, nil, fmt.Errorf("core: keygen: %w", err)
	}
	mapped, err := c.InitData(p)
	if err != nil {
		return match.Entry{}, nil, fmt.Errorf("core: init data: %w", err)
	}
	ch, err := c.Enc(key, p.ID, mapped)
	if err != nil {
		return match.Entry{}, nil, fmt.Errorf("core: enc: %w", err)
	}
	auth, err := c.Auth(key, p.ID)
	if err != nil {
		return match.Entry{}, nil, fmt.Errorf("core: auth: %w", err)
	}
	return match.Entry{ID: p.ID, KeyHash: key.Hash(), Chain: ch, Auth: auth}, key, nil
}

// VerifyResults filters the server's matching results down to the ones
// that pass Vf, reporting how many were rejected — the detection a
// malicious server triggers.
func (c *Client) VerifyResults(key *keygen.Key, results []match.Result) (verified []match.Result, rejected int, err error) {
	for _, r := range results {
		ok, verr := c.Vf(key, r.ID, r.Auth)
		if verr != nil {
			if errors.Is(verr, verify.ErrMalformed) {
				rejected++
				continue
			}
			return nil, 0, verr
		}
		if ok {
			verified = append(verified, r)
		} else {
			rejected++
		}
	}
	return verified, rejected, nil
}

// UploadBits returns the size in bits of one upload message:
// lid + lh + lciph + d * N (ID, key hash, auth info, encrypted chain),
// the quantity Figure 5(d-f) accounts as "PM+V"; without the auth term it
// is the "PM" curve.
func (s *System) UploadBits(withVerification bool) int {
	const lid = 32 // the paper's user-ID length
	lh := 256      // h(Kup): SHA-256
	bits := lid + lh + s.schema.NumAttrs()*int(s.opeParams.CiphertextBits)
	if withVerification {
		bits += s.verifier.AuthLen() * 8
	}
	return bits
}

// ResultBits returns the size in bits of a k-result query response:
// k * (lid + lciph) per the paper's cost analysis.
func (s *System) ResultBits(withVerification bool) int {
	const lid = 32
	per := lid
	if withVerification {
		per += s.verifier.AuthLen() * 8
	}
	return s.params.TopK * per
}
