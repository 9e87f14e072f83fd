package keygen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"smatch/internal/gf"
)

// hashFuzzyVectorGolden is SHA-256 over hashFuzzyVector's seeds with and
// without a key binding, for vectors of 0, 4, 17 and 200 symbols. It was
// recorded with a streaming sha256.New, before the stack buffer replaced it.
const hashFuzzyVectorGolden = "bd1d61fb6eb1383665993d79a7cba89d4f5e00a38f6e3a582e3be016901e3ef0"

func hashFuzzyVectorDigest() string {
	h := sha256.New()
	for _, binding := range [][]byte{nil, []byte("deployment"), bytes.Repeat([]byte{0xa5}, 300)} {
		for _, n := range []int{0, 4, 17, 200} {
			t := make([]gf.Elem, n)
			for i := range t {
				t[i] = gf.Elem(i*263 + 5)
			}
			h.Write(hashFuzzyVector(n+3, binding, t))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestHashFuzzyVectorGolden(t *testing.T) {
	if got := hashFuzzyVectorDigest(); got != hashFuzzyVectorGolden {
		t.Errorf("hashFuzzyVector output changed: digest %s, want %s", got, hashFuzzyVectorGolden)
	}
}
