package oprf

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/big"
	"testing"
)

// hashToGroupGolden is SHA-256 over hashToGroup's outputs, each as a
// fixed-width big-endian string, for inputs of 0, 1, 32, 68 and 1000 bytes
// under a 1024-bit and a 2048-bit modulus. It was recorded with a
// sha256.New per block, before the stack buffer replaced it.
const hashToGroupGolden = "0650ec1fb60b3a699eed66dbbedf45d08fb3000512fb872e155d9bec6875e0d3"

func hashToGroupDigest() string {
	h := sha256.New()
	for _, bits := range []uint{1024, 2048} {
		n := new(big.Int).Lsh(big.NewInt(1), bits)
		n.Sub(n, big.NewInt(189))
		for _, l := range []int{0, 1, 32, 68, 1000} {
			in := bytes.Repeat([]byte{byte(l)}, l)
			h.Write(hashToGroup(in, n).FillBytes(make([]byte, bits/8)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestHashToGroupGolden(t *testing.T) {
	if got := hashToGroupDigest(); got != hashToGroupGolden {
		t.Errorf("hashToGroup output changed: digest %s, want %s", got, hashToGroupGolden)
	}
}
