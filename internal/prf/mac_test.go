package prf

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// oracle is crypto/hmac, the function the kernel must equal.
func oracle(key []byte, msg ...[]byte) []byte {
	m := hmac.New(sha256.New, key)
	for _, p := range msg {
		m.Write(p)
	}
	return m.Sum(nil)
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*131)
	}
	return b
}

// TestMACMatchesCryptoHMAC runs the kernel against crypto/hmac for every
// key length 0–200 (padded, one block, hashed first) and every message
// length from empty to 64 bytes past the stack buffer, so both buffer
// paths are covered.
func TestMACMatchesCryptoHMAC(t *testing.T) {
	msg := pattern(maxStackMsg+64, 3)
	for kl := 0; kl <= 200; kl++ {
		key := pattern(kl, byte(kl))
		for ml := 0; ml <= len(msg); ml++ {
			got := MAC(key, msg[:ml])
			if want := oracle(key, msg[:ml]); !bytes.Equal(got[:], want) {
				t.Fatalf("key %d B, msg %d B: MAC %x, crypto/hmac %x", kl, ml, got, want)
			}
		}
	}
}

// TestStreamAndDeriveMatchCryptoHMAC checks the kernel's two-part callers
// against crypto/hmac, with labels up to past the stack buffer.
func TestStreamAndDeriveMatchCryptoHMAC(t *testing.T) {
	for _, kl := range []int{0, 32, 64, 65, 200} {
		key := pattern(kl, 9)
		for _, ll := range []int{0, 1, maxInlineLabel, maxInlineLabel + 1, maxStackMsg, maxStackMsg + 1} {
			label := pattern(ll, 17)
			got := Derive(key, label)
			if want := oracle(key, []byte("smatch/derive/"), label); !bytes.Equal(got[:], want) {
				t.Fatalf("key %d B, label %d B: Derive %x, crypto/hmac %x", kl, ll, got, want)
			}
			s := New(key, label)
			for ctr := uint64(0); ctr < 3; ctr++ {
				var block [Size]byte
				s.Read(block[:])
				c := []byte{0, 0, 0, 0, 0, 0, 0, byte(ctr)}
				if want := oracle(key, label, c); !bytes.Equal(block[:], want) {
					t.Fatalf("key %d B, label %d B, block %d: stream %x, crypto/hmac %x", kl, ll, ctr, block, want)
				}
			}
		}
	}
}

// rfc4231 holds the inputs of RFC 4231's HMAC-SHA256 test cases 1–4, 6
// and 7 (case 5 checks truncation, which MAC does not do), and the
// expected outputs of cases 1 and 2.
var rfc4231 = []struct {
	key, msg []byte
	want     string
}{
	{bytes.Repeat([]byte{0x0b}, 20), []byte("Hi There"),
		"b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
	{[]byte("Jefe"), []byte("what do ya want for nothing?"),
		"5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
	{bytes.Repeat([]byte{0xaa}, 20), bytes.Repeat([]byte{0xdd}, 50), ""},
	{pattern25(), bytes.Repeat([]byte{0xcd}, 50), ""},
	{bytes.Repeat([]byte{0xaa}, 131), []byte("Test Using Larger Than Block-Size Key - Hash Key First"), ""},
	{bytes.Repeat([]byte{0xaa}, 131), []byte("This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm."), ""},
}

// pattern25 is test case 4's key, 0x01 through 0x19.
func pattern25() []byte {
	b := make([]byte, 25)
	for i := range b {
		b[i] = byte(i + 1)
	}
	return b
}

func TestMACRFC4231(t *testing.T) {
	for i, tc := range rfc4231 {
		got := MAC(tc.key, tc.msg)
		if want := oracle(tc.key, tc.msg); !bytes.Equal(got[:], want) {
			t.Errorf("case %d: MAC %x, crypto/hmac %x", i, got, want)
		}
		if tc.want != "" && hex.EncodeToString(got[:]) != tc.want {
			t.Errorf("case %d: MAC %x, RFC 4231 %s", i, got, tc.want)
		}
	}
}

// FuzzMAC: the kernel equals crypto/hmac for any key and message.
func FuzzMAC(f *testing.F) {
	for _, tc := range rfc4231 {
		f.Add(tc.key, tc.msg)
	}
	f.Fuzz(func(t *testing.T, key, msg []byte) {
		got := MAC(key, msg)
		if want := oracle(key, msg); !bytes.Equal(got[:], want) {
			t.Fatalf("MAC(%x, %x) = %x, crypto/hmac %x", key, msg, got, want)
		}
	})
}
