// Package verify implements the paper's profile-verification protocol
// (Section VI, Algorithms Auth and Vf), the piece that defends against a
// malicious server returning fake matching results.
//
// Each user v holds a random secret s_v and publishes, alongside her
// encrypted profile, the authentication information
//
//	ciph_v = E_{Kvp}( p^{s_v} || H(p^{s_v * ID_v}) )
//
// where p generates the quadratic-residue subgroup and E is AES-256-CTR in
// encrypt-then-MAC composition keyed from the profile key Kvp. A querier u
// whose profile is close to v's holds the same profile key, so she can
// decrypt ciph_v into t1 || t2 and check H(t1^{ID_v}) == t2. The server
// cannot forge ciph_v without the profile key, and a non-matching user
// cannot decrypt it — so a verified result simultaneously proves "v really
// is a match" (key agreement) and "this auth info really is v's" (the
// exponent binds ID_v). Recovering s_v from ciph_v is as hard as
// computational Diffie-Hellman in the subgroup.
package verify

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"

	"smatch/internal/group"
	"smatch/internal/prf"
	"smatch/internal/profile"
)

const (
	ivLen  = aes.BlockSize
	macLen = sha256.Size
	tagLen = sha256.Size // t2 = H(p^{s*ID})
)

// ErrMalformed is returned for auth blobs with impossible structure (too
// short to contain IV, payload and MAC). Authentication *failures* — wrong
// key, tampered bytes, wrong ID — report as a false verification result,
// not an error, because they are expected protocol outcomes.
var ErrMalformed = errors.New("verify: malformed authentication information")

// Verifier runs the protocol over a fixed group. Safe for concurrent use.
type Verifier struct {
	grp *group.Group
}

// New constructs a Verifier. A nil group selects the standard 2048-bit one.
// New stays cheap: the group builds its fixed-base table for Auth's p^s on
// the first Auth (about 6 ms at 2048 bits), and verifiers over one group
// share it.
func New(grp *group.Group) (*Verifier, error) {
	if grp == nil {
		grp = group.Default2048()
	}
	if err := grp.Validate(); err != nil {
		return nil, fmt.Errorf("verify: bad group: %w", err)
	}
	return &Verifier{grp: grp}, nil
}

// Group returns the underlying group.
func (v *Verifier) Group() *group.Group { return v.grp }

// AuthLen returns the byte length of authentication information: IV,
// group element, hash tag, and MAC. Used by the communication-cost
// accounting in Figure 5(d-f).
func (v *Verifier) AuthLen() int {
	return ivLen + v.grp.ElementLen() + tagLen + macLen
}

// Auth generates a user's authentication information ciph_u under profile
// key key. A fresh secret s_u is drawn from rng (crypto/rand by default);
// the secret never leaves this function — verifiability only needs the
// published commitment pair. Auth is Commit followed by AuthFrom on the
// same rng: it draws s, then the IV.
func (v *Verifier) Auth(key []byte, id profile.ID, rng io.Reader) ([]byte, error) {
	if err := checkAuthArgs(key, id); err != nil {
		return nil, err
	}
	c, err := v.Commit(rng)
	if err != nil {
		return nil, err
	}
	return v.AuthFrom(key, id, c, rng)
}

// Commitment is t1 = p^s for a fresh secret s that is already discarded.
// It depends on neither the profile key nor the user ID, so a device can
// compute it ahead of time; each Commitment must go to exactly one
// AuthFrom, because two blobs sharing t1 are linkable by whoever opens
// both. The zero Commitment is invalid.
type Commitment struct {
	t1 *big.Int
}

// Commit draws a fresh secret s from rng (crypto/rand by default) and
// returns its commitment p^s, the one full-width exponentiation in Auth.
// s never leaves this function.
func (v *Verifier) Commit(rng io.Reader) (Commitment, error) {
	if rng == nil {
		rng = rand.Reader
	}
	s, err := v.grp.RandScalar(rng)
	if err != nil {
		return Commitment{}, fmt.Errorf("verify: sampling secret: %w", err)
	}
	return Commitment{t1: v.grp.Pow(s)}, nil
}

// AuthFrom finishes Auth from a commitment: it computes the tag
// t2 = H(t1^ID) = H(p^{s*ID}) and seals t1 || t2 under key, drawing the IV
// from rng (crypto/rand by default).
func (v *Verifier) AuthFrom(key []byte, id profile.ID, c Commitment, rng io.Reader) ([]byte, error) {
	if err := checkAuthArgs(key, id); err != nil {
		return nil, err
	}
	if c.t1 == nil {
		return nil, errors.New("verify: zero commitment")
	}
	if rng == nil {
		rng = rand.Reader
	}
	t2 := v.tag(c.t1, id)
	payload := append(v.grp.EncodeElement(c.t1), t2[:]...)
	return v.seal(key, payload, rng)
}

// checkAuthArgs rejects what Auth can never bind.
func checkAuthArgs(key []byte, id profile.ID) error {
	if len(key) == 0 {
		return errors.New("verify: empty profile key")
	}
	if id == 0 {
		// t1^0 = 1 for every secret: the tag would bind neither s nor the ID.
		return errors.New("verify: zero user ID")
	}
	return nil
}

// Verify checks the matched user's authentication information: it decrypts
// ciph with the querier's profile key and tests H(t1^ID) == t2. The boolean
// is the Vf output b; authentication failures (wrong key, tampering, wrong
// ID) return (false, nil).
func (v *Verifier) Verify(key []byte, id profile.ID, ciph []byte) (bool, error) {
	if len(key) == 0 {
		return false, errors.New("verify: empty profile key")
	}
	if len(ciph) != v.AuthLen() {
		return false, ErrMalformed
	}
	if id == 0 {
		return false, nil // no user has ID 0, and H(t1^0) = H(1) proves nothing
	}
	payload, ok := v.open(key, ciph)
	if !ok {
		return false, nil // different profile key or tampered blob
	}
	elemLen := v.grp.ElementLen()
	t1, err := v.grp.DecodeElement(payload[:elemLen])
	if err != nil {
		return false, nil // decrypted garbage: not our key
	}
	want := v.tag(t1, id)
	return hmac.Equal(want[:], payload[elemLen:]), nil
}

const tagPrefix = "smatch/verify/tag/"

// tag computes H(t1^ID) with domain separation: SHA-256 of the prefix and
// the fixed-width encoding of t1^ID, hashed from a stack buffer.
func (v *Verifier) tag(t1 *big.Int, id profile.ID) [tagLen]byte {
	exp := new(big.Int).SetUint64(uint64(id))
	pow := v.grp.Exp(t1, exp)
	n := len(tagPrefix) + v.grp.ElementLen()
	var stack [len(tagPrefix) + 256]byte // 256: the element at 2048 bits
	var in []byte
	if n <= len(stack) {
		in = stack[:n]
	} else {
		in = make([]byte, n)
	}
	pow.FillBytes(in[copy(in, tagPrefix):])
	return sha256.Sum256(in)
}

// seal encrypts payload with AES-256-CTR and appends an HMAC-SHA256 over
// IV || ciphertext (encrypt-then-MAC, the mode the paper's implementation
// section prescribes).
func (v *Verifier) seal(key, payload []byte, rng io.Reader) ([]byte, error) {
	encKey := prf.Derive(key, []byte("verify/enc"))
	macKey := prf.Derive(key, []byte("verify/mac"))
	out := make([]byte, ivLen+len(payload), ivLen+len(payload)+macLen)
	if _, err := io.ReadFull(rng, out[:ivLen]); err != nil {
		return nil, fmt.Errorf("verify: drawing IV: %w", err)
	}
	block, err := aes.NewCipher(encKey[:])
	if err != nil {
		return nil, fmt.Errorf("verify: AES init: %w", err)
	}
	cipher.NewCTR(block, out[:ivLen]).XORKeyStream(out[ivLen:], payload)
	mac := prf.MAC(macKey[:], out)
	return append(out, mac[:]...), nil
}

// open verifies the MAC and decrypts. Returns ok=false on MAC mismatch.
func (v *Verifier) open(key, blob []byte) ([]byte, bool) {
	encKey := prf.Derive(key, []byte("verify/enc"))
	macKey := prf.Derive(key, []byte("verify/mac"))
	body, tag := blob[:len(blob)-macLen], blob[len(blob)-macLen:]
	mac := prf.MAC(macKey[:], body)
	if !hmac.Equal(mac[:], tag) {
		return nil, false
	}
	block, err := aes.NewCipher(encKey[:])
	if err != nil {
		return nil, false
	}
	payload := make([]byte, len(body)-ivLen)
	cipher.NewCTR(block, body[:ivLen]).XORKeyStream(payload, body[ivLen:])
	return payload, true
}
