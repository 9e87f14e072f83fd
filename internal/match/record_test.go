package match

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"strings"
	"testing"

	"smatch/internal/chain"
	"smatch/internal/profile"
)

// randCiphertext draws a ciphertext below 2^ctBits, with zero and the
// saturated 2^ctBits-1 each one time in sixteen.
func randCiphertext(rng *rand.Rand, ctBits uint) *big.Int {
	switch rng.Intn(16) {
	case 0:
		return new(big.Int)
	case 1:
		top := new(big.Int).Lsh(big.NewInt(1), ctBits)
		return top.Sub(top, big.NewInt(1))
	}
	b := make([]byte, (ctBits+7)/8)
	rng.Read(b)
	if r := ctBits % 8; r != 0 {
		b[0] &= 1<<r - 1
	}
	return new(big.Int).SetBytes(b)
}

// randChain draws a d-attribute chain of ctBits-wide ciphertexts.
func randChain(rng *rand.Rand, d int, ctBits uint) *chain.Chain {
	cts := make([]*big.Int, d)
	for i := range cts {
		cts[i] = randCiphertext(rng, ctBits)
	}
	return &chain.Chain{Cts: cts, CtBits: ctBits}
}

// goldenStore builds the seeded store TestSnapshotGolden hashes: chains
// of 1 to 17 attributes at 48, 64, 80 and 2048 bits, priority-weighted
// 84-bit chains whose sums span two limbs, auth blobs of 0 to 79 bytes,
// re-keys across 12 buckets, and removes.
func goldenStore(t *testing.T) *Server {
	t.Helper()
	rng := rand.New(rand.NewSource(1515))
	widths := []uint{48, 64, 80, 2048}
	s := NewServer()
	for op := 0; op < 1500; op++ {
		id := profile.ID(1 + rng.Intn(400))
		if rng.Intn(8) == 0 {
			if err := s.Remove(id); err != nil && !errors.Is(err, ErrUnknownUser) {
				t.Fatal(err)
			}
			continue
		}
		d := 1 + rng.Intn(17)
		var ch *chain.Chain
		if rng.Intn(5) == 0 {
			cts := make([]*big.Int, d)
			for i := range cts {
				ct := new(big.Int).Lsh(big.NewInt(rng.Int63n(1<<12)), 72)
				cts[i] = ct.Add(ct, big.NewInt(rng.Int63()))
			}
			ch = &chain.Chain{Cts: cts, CtBits: 84}
		} else {
			ch = randChain(rng, d, widths[rng.Intn(len(widths))])
		}
		auth := make([]byte, rng.Intn(80))
		rng.Read(auth)
		must(t, s.Upload(Entry{
			ID:      id,
			KeyHash: []byte(fmt.Sprintf("golden-%02d", rng.Intn(12))),
			Chain:   ch,
			Auth:    auth,
		}))
	}
	return s
}

// TestSnapshotGolden pins the snapshot format byte for byte: the SHA-256
// of the seeded store's snapshot must equal the digest committed in
// testdata, which was recorded before the store's record layout changed.
func TestSnapshotGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/snapshot_golden.sha256")
	if err != nil {
		t.Fatal(err)
	}
	s := goldenStore(t)
	h := sha256.New()
	if err := s.Snapshot(h); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != strings.TrimSpace(string(want)) {
		t.Fatalf("snapshot of the seeded %d-user store hashes to %s, want %s", s.NumUsers(), got, want)
	}
}

// TestUploadRejectsOutOfRangeCiphertext pins Validate's ciphertext rule:
// every ciphertext the store accepts is one its snapshot can write back
// unchanged, so nil, negative and too-wide values are refused up front
// and leave the store untouched.
func TestUploadRejectsOutOfRangeCiphertext(t *testing.T) {
	wide := new(big.Int).Lsh(big.NewInt(1), 70) // 71 bits
	cases := map[string]*big.Int{
		"nil":           nil,
		"negative":      big.NewInt(-5),
		"71 bits in 64": wide,
		"2^64 in 64":    new(big.Int).Lsh(big.NewInt(1), 64),
	}
	for name, ct := range cases {
		t.Run(name, func(t *testing.T) {
			s := NewServer()
			e := Entry{ID: 1, KeyHash: []byte("k"), Auth: []byte("a"),
				Chain: &chain.Chain{Cts: []*big.Int{big.NewInt(3), ct}, CtBits: 64}}
			if err := e.Validate(); err == nil {
				t.Error("Validate accepted the ciphertext")
			}
			if err := s.Upload(e); err == nil {
				t.Error("Upload accepted the ciphertext")
			}
			if s.NumUsers() != 0 || s.NumBuckets() != 0 {
				t.Error("rejected upload left state behind")
			}
		})
	}
	// The edges of the range are accepted.
	top := new(big.Int).Lsh(big.NewInt(1), 64)
	top.Sub(top, big.NewInt(1))
	s := NewServer()
	must(t, s.Upload(Entry{ID: 1, KeyHash: []byte("k"),
		Chain: &chain.Chain{Cts: []*big.Int{new(big.Int), top}, CtBits: 64}}))
}

// TestRecordIsolation pins that the store owns its records: mutating an
// uploaded Entry, or an Entry handed out by ForEachEntry, changes neither
// the next snapshot nor any match result.
func TestRecordIsolation(t *testing.T) {
	s := NewServer()
	var uploaded []Entry
	for i := 1; i <= 6; i++ {
		e := entry(profile.ID(i), "iso", int64(10*i))
		must(t, s.Upload(e))
		uploaded = append(uploaded, e)
	}
	state := func() ([]byte, string) {
		var buf bytes.Buffer
		must(t, s.Snapshot(&buf))
		var res strings.Builder
		for i := 1; i <= 6; i++ {
			rs, err := s.Match(profile.ID(i), 5)
			must(t, err)
			for _, r := range rs {
				fmt.Fprintf(&res, "%d:%d:%q ", i, r.ID, r.Auth)
			}
		}
		return buf.Bytes(), res.String()
	}
	snap, results := state()

	// The caller keeps using what it uploaded.
	for _, e := range uploaded {
		e.Chain.Cts[0].SetInt64(1000 - e.Chain.Cts[0].Int64())
		e.Auth[0] ^= 0xFF
		e.KeyHash[0] ^= 0xFF
	}
	if got, res := state(); !bytes.Equal(got, snap) || res != results {
		t.Fatal("mutating uploaded entries changed the store")
	}

	// A walker edits what ForEachEntry hands out.
	must(t, s.ForEachEntry(func(e Entry) error {
		e.Chain.Cts[0].SetInt64(999)
		e.Auth[0] ^= 0xFF
		e.KeyHash[0] ^= 0xFF
		return nil
	}))
	if got, res := state(); !bytes.Equal(got, snap) || res != results {
		t.Fatal("mutating ForEachEntry's entries changed the store")
	}
}
