package prf

import "crypto/sha256"

const (
	// Size is the byte length of a MAC, a Derive output and a stream block.
	Size = sha256.Size
	// blockSize is SHA-256's input block, the width of an HMAC key block.
	blockSize = 64
	// maxStackMsg is the longest message the kernel hashes in a stack
	// buffer; longer ones go through the same code in a heap buffer. It
	// holds the encrypt-then-MAC body of verify's auth information (IV,
	// element and tag) in the built-in 2048-bit group: 16 + 256 + 32 = 304
	// bytes.
	maxStackMsg = 304
)

// keyBlock returns HMAC's K0: the key zero-padded to a SHA-256 block, or
// its SHA-256 when it is longer than a block (RFC 2104).
func keyBlock(key []byte) (kb [blockSize]byte) {
	if len(key) > blockSize {
		h := sha256.Sum256(key)
		copy(kb[:], h[:])
	} else {
		copy(kb[:], key)
	}
	return kb
}

// hmacSum is the package's one HMAC-SHA256 kernel:
// SHA256((K0⊕opad) ‖ SHA256((K0⊕ipad) ‖ a ‖ b)) over stack buffers, the
// function crypto/hmac computes, without its per-call hash states. The
// message is a ‖ b so that callers with a prefix or suffix need not
// concatenate. Its running time depends only on the lengths.
func hmacSum(kb *[blockSize]byte, a, b []byte) [Size]byte {
	n := blockSize + len(a) + len(b)
	var stack [blockSize + maxStackMsg]byte
	var in []byte
	if n <= len(stack) {
		in = stack[:n]
	} else {
		in = make([]byte, n)
	}
	for i, k := range kb {
		in[i] = k ^ 0x36
	}
	copy(in[blockSize:], a)
	copy(in[blockSize+len(a):], b)
	inner := sha256.Sum256(in)
	var out [blockSize + Size]byte
	for i, k := range kb {
		out[i] = k ^ 0x5c
	}
	copy(out[blockSize:], inner[:])
	return sha256.Sum256(out[:])
}

// MAC returns HMAC-SHA256(key, msg), byte for byte what crypto/hmac
// computes, without allocating for messages up to a few hundred bytes.
// Compare tags with hmac.Equal.
func MAC(key, msg []byte) [Size]byte {
	kb := keyBlock(key)
	return hmacSum(&kb, msg, nil)
}
