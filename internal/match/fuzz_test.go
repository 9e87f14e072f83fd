// Native Go fuzz targets for the store's input boundary: arbitrary
// attacker-controlled bytes reach Entry through wire uploads
// (chain.Parse + Upload) and through snapshot restores. Neither path may
// panic, and everything Upload accepts must behave: findable, matchable,
// removable. Run with `go test -fuzz=FuzzEntryUpload ./internal/match`.
package match

import (
	"bytes"
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
		s := newServerShards(4)
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
