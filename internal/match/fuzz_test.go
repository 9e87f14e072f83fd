// Native Go fuzz targets for the store's input boundary: arbitrary
// attacker-controlled bytes reach Entry through wire uploads
// (chain.Parse + Upload) and through snapshot restores. Neither path may
// panic, and everything Upload accepts must behave: findable, matchable,
// removable. Run with `go test -fuzz=FuzzEntryUpload ./internal/match`.
package match

import (
	"bytes"
	"math"
	"math/big"
	"testing"

	"smatch/internal/chain"
	"smatch/internal/profile"
)

func FuzzEntryUpload(f *testing.F) {
	// Seeds: a valid 2-attribute 48-bit chain, a zero ID, an empty key
	// hash, a chain length that disagrees with numAttrs, an oversized
	// ciphertext-width claim, and overrides of the first ciphertext that
	// are negative, one bit too wide, and exactly full width.
	valid := make([]byte, 12)
	valid[5] = 1
	f.Add(uint32(1), []byte("kh"), uint16(2), uint32(48), valid, []byte("auth"), int16(0))
	f.Add(uint32(0), []byte("kh"), uint16(2), uint32(48), valid, []byte{}, int16(0))
	f.Add(uint32(1), []byte{}, uint16(2), uint32(48), valid, []byte{}, int16(0))
	f.Add(uint32(1), []byte("kh"), uint16(3), uint32(48), valid, []byte{}, int16(0))
	f.Add(uint32(1), []byte("kh"), uint16(1), uint32(1<<20), valid, []byte{}, int16(0))
	f.Add(uint32(1), []byte("kh"), uint16(2), uint32(48), valid, []byte("auth"), int16(-3))
	f.Add(uint32(1), []byte("kh"), uint16(2), uint32(48), valid, []byte("auth"), int16(49))
	f.Add(uint32(1), []byte("kh"), uint16(2), uint32(48), valid, []byte("auth"), int16(48))

	f.Fuzz(func(t *testing.T, id uint32, keyHash []byte, numAttrs uint16, ctBits uint32, chainBytes []byte, auth []byte, override int16) {
		// Bound the claimed geometry the way the wire format does (uint16
		// attrs, uint32 bits) without letting the fuzzer allocate
		// gigabytes inside chain.Parse's comparison limit.
		if ctBits > 1<<14 {
			ctBits = ctBits % (1 << 14)
		}
		ch, err := chain.Parse(chainBytes, int(numAttrs), uint(ctBits))
		if err != nil {
			return // rejected at the parse boundary: fine
		}
		if override != 0 {
			// In-process callers hand Upload big.Ints no wire chain can
			// carry: replace the first ciphertext with ±2^(|override|-1),
			// exactly |override| bits wide.
			width := int(override)
			if width < 0 {
				width = -width
			}
			ct := new(big.Int).Lsh(big.NewInt(1), uint(width-1))
			if override < 0 {
				ct.Neg(ct)
			}
			ch.Cts[0] = ct
		}
		s := NewServer()
		e := Entry{ID: profile.ID(id), KeyHash: keyHash, Chain: ch, Auth: auth}
		if err := s.Upload(e); err != nil {
			// Rejected at validation: the store must be untouched.
			if e.Validate() == nil {
				t.Fatalf("Upload rejected an entry Validate accepts: %v", err)
			}
			if s.NumUsers() != 0 || s.NumBuckets() != 0 {
				t.Fatalf("rejected upload left state behind")
			}
			return
		}
		// Accepted: the full lifecycle works.
		if got := s.NumUsers(); got != 1 {
			t.Fatalf("NumUsers = %d after one upload", got)
		}
		if got := s.BucketSize(keyHash); got != 1 {
			t.Fatalf("BucketSize = %d after one upload", got)
		}
		if _, err := s.Match(e.ID, 3); err != nil {
			t.Fatalf("uploaded user unmatchable: %v", err)
		}
		if _, err := s.MatchProbe(e.ID, [][]byte{keyHash, []byte("alt")}, 3); err != nil {
			t.Fatalf("uploaded user unprobeable: %v", err)
		}
		// Snapshot of whatever the fuzzer built must restore losslessly.
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		restored, err := Restore(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("own snapshot does not restore: %v", err)
		}
		if restored.NumUsers() != 1 {
			t.Fatalf("restored %d users, want 1", restored.NumUsers())
		}
		if err := restored.ForEachEntry(func(got Entry) error {
			for i, ct := range got.Chain.Cts {
				if ct.Cmp(ch.Cts[i]) != 0 {
					t.Fatalf("ciphertext %d restored as %v, uploaded %v", i, ct, ch.Cts[i])
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.Remove(e.ID); err != nil {
			t.Fatalf("remove: %v", err)
		}
		if s.NumUsers() != 0 || s.NumBuckets() != 0 {
			t.Fatalf("store not empty after removing its only user")
		}
	})
}

// refEntry is the reference FuzzUploadBytes holds NewRecord to: the
// big.Int path an upload took before NewRecord, chain.Parse then
// Entry.Validate.
func refEntry(id profile.ID, keyHash []byte, ctBits uint, d int, chainBytes, auth []byte) (Entry, error) {
	ch, err := chain.Parse(chainBytes, d, ctBits)
	if err != nil {
		return Entry{}, err
	}
	e := Entry{ID: id, KeyHash: keyHash, Chain: ch, Auth: auth}
	return e, e.Validate()
}

// FuzzUploadBytes is a differential of NewRecord against refEntry: it
// must accept exactly what the reference accepts, and a Put of its record
// must leave a store indistinguishable — snapshot bytes, match IDs and
// auth bytes — from an Upload of the reference's Entry. The record must
// not change when the caller's buffers are overwritten afterwards. Run
// with `go test -fuzz=FuzzUploadBytes ./internal/match`.
func FuzzUploadBytes(f *testing.F) {
	two := make([]byte, 16) // two 64-bit ciphertexts
	two[7], two[15] = 3, 9
	full60 := bytes.Repeat([]byte{0xFF}, 16) // two 60-bit ciphertexts
	full60[0], full60[8] = 0x0F, 0x0F
	auth := []byte("auth")
	f.Add(uint32(1), []byte("kh"), uint32(64), int32(2), two, auth, uint32(0))
	// ctBits%8 != 0: exactly full width, then the excess top bits set.
	f.Add(uint32(1), []byte("kh"), uint32(60), int32(2), full60, auth, uint32(0))
	f.Add(uint32(1), []byte("kh"), uint32(60), int32(2), bytes.Repeat([]byte{0xFF}, 16), auth, uint32(0))
	f.Add(uint32(1), []byte("kh"), uint32(60), int32(2), append([]byte{0x10}, make([]byte, 15)...), auth, uint32(0))
	// len(chain) = d·w ± 1.
	f.Add(uint32(1), []byte("kh"), uint32(64), int32(2), two[:15], auth, uint32(0))
	f.Add(uint32(1), []byte("kh"), uint32(64), int32(2), append(two, 0), auth, uint32(0))
	// d = 0, and d = 65536 with zero-width ciphertexts, whose length check
	// passes so only the attribute limit rejects.
	f.Add(uint32(1), []byte("kh"), uint32(64), int32(0), []byte{}, auth, uint32(0))
	f.Add(uint32(1), []byte("kh"), uint32(0), int32(65536), []byte{}, auth, uint32(0))
	f.Add(uint32(1), []byte("kh"), uint32(0), int32(65535), []byte{}, auth, uint32(0))
	// Auth of MaxAuthLen and MaxAuthLen + 1.
	f.Add(uint32(1), []byte("kh"), uint32(64), int32(2), two, auth, uint32(MaxAuthLen-len(auth)))
	f.Add(uint32(1), []byte("kh"), uint32(64), int32(2), two, auth, uint32(MaxAuthLen+1-len(auth)))
	// Empty and 1025-byte key hash, and ID 0.
	f.Add(uint32(1), []byte{}, uint32(64), int32(2), two, auth, uint32(0))
	f.Add(uint32(1), make([]byte, MaxKeyHashLen+1), uint32(64), int32(2), two, auth, uint32(0))
	f.Add(uint32(0), []byte("kh"), uint32(64), int32(2), two, auth, uint32(0))

	// The auth blob is the fuzzed bytes followed by authPad zero bytes, so
	// blobs at the size limit stay cheap to mutate and minimize.
	f.Fuzz(func(t *testing.T, id32 uint32, keyHash []byte, ctBits32 uint32, d32 int32, chainBytes, authHead []byte, authPad uint32) {
		id, ctBits, d := profile.ID(id32), uint(ctBits32), int(d32)
		auth := append(bytes.Clone(authHead), make([]byte, authPad%(MaxAuthLen+2))...)
		// The record gets its own copies of the inputs, overwritten below.
		kh, cb, au := bytes.Clone(keyHash), bytes.Clone(chainBytes), bytes.Clone(auth)
		rec, err := NewRecord(id, kh, ctBits, d, cb, au)
		if d > math.MaxUint16+1 {
			// Past the attribute limit chain.Parse would allocate d
			// big.Ints before Validate refuses them; only NewRecord runs.
			if err == nil {
				t.Fatalf("NewRecord accepted %d attributes", d)
			}
			return
		}
		e, refErr := refEntry(id, keyHash, ctBits, d, chainBytes, auth)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("NewRecord err = %v, reference err = %v", err, refErr)
		}
		if err != nil {
			return
		}
		for _, b := range [][]byte{kh, cb, au} {
			for i := range b {
				b[i] ^= 0xA5
			}
		}
		if rec.ID() != id || !bytes.Equal(rec.KeyHash(), keyHash) || !bytes.Equal(rec.Auth(), auth) ||
			rec.Sum().Cmp(SumOfChain(e.Chain)) != 0 {
			t.Fatalf("record (%d, %x, %x) does not carry the upload (%d, %x, %x) or its sum", rec.ID(), rec.KeyHash(), rec.Auth(), id, keyHash, auth)
		}
		// Both stores also hold a neighbor in the same bucket, so matches
		// have something to return.
		nb := Entry{ID: id + 1, KeyHash: keyHash, Chain: fakeChain(1 << 20), Auth: []byte("neighbor")}
		if nb.ID == 0 {
			nb.ID = id - 1
		}
		put, up := NewServer(), NewServer()
		must(t, put.Upload(nb))
		must(t, up.Upload(nb))
		put.Put(rec)
		must(t, up.Upload(e))
		var a, b bytes.Buffer
		must(t, put.Snapshot(&a))
		must(t, up.Snapshot(&b))
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("Put and Upload snapshots differ")
		}
		for _, q := range []profile.ID{id, nb.ID} {
			got, err := put.Match(q, 3)
			must(t, err)
			want, err := up.Match(q, 3)
			must(t, err)
			if len(got) != len(want) {
				t.Fatalf("Match(%d): %d results after Put, %d after Upload", q, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].ID || !bytes.Equal(got[i].Auth, want[i].Auth) {
					t.Fatalf("Match(%d)[%d] = (%d, %x) after Put, (%d, %x) after Upload", q, i, got[i].ID, got[i].Auth, want[i].ID, want[i].Auth)
				}
			}
		}
	})
}

func FuzzRestore(f *testing.F) {
	// Seeds: a genuine snapshot and assorted corruptions of it.
	s := NewServer()
	if err := s.Upload(entry(1, "bucket", 42)); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(append(append([]byte{}, good...), 0xAA))
	f.Add([]byte("SMATCHS1"))

	f.Fuzz(func(t *testing.T, data []byte) {
		restored, err := Restore(bytes.NewReader(data))
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		// Accepted snapshots re-snapshot deterministically.
		var out bytes.Buffer
		if err := restored.Snapshot(&out); err != nil {
			t.Fatalf("re-snapshot of accepted restore: %v", err)
		}
		second, err := Restore(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-restore: %v", err)
		}
		if second.NumUsers() != restored.NumUsers() {
			t.Fatalf("restore/snapshot cycle changed user count")
		}
	})
}
