// Package prf provides a deterministic pseudo-random coin stream built from
// HMAC-SHA256 in counter mode. The same (key, label) pair always yields the
// same stream, which is what makes the OPE in internal/ope a deterministic
// encryption: every recursion step re-derives its coins from the key and the
// current (domain, range) interval rather than from mutable state.
package prf

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"math/big"
)

// Stream is a deterministic random bit generator. It implements io.Reader
// and a set of typed draws on top of it. A Stream is NOT safe for concurrent
// use; derive independent streams with New for concurrent consumers.
type Stream struct {
	key     []byte
	label   []byte
	counter uint64
	buf     [sha256.Size]byte
	off     int // consumed bytes of buf; == len(buf) when empty
}

// New returns a stream keyed by key and domain-separated by label. Distinct
// labels under the same key yield computationally independent streams.
func New(key, label []byte) *Stream {
	s := &Stream{
		key:   append([]byte(nil), key...),
		label: append([]byte(nil), label...),
	}
	s.off = len(s.buf)
	return s
}

func (s *Stream) refill() {
	mac := hmac.New(sha256.New, s.key)
	var ctr [8]byte
	binary.BigEndian.PutUint64(ctr[:], s.counter)
	mac.Write(s.label)
	mac.Write(ctr[:])
	mac.Sum(s.buf[:0])
	s.counter++
	s.off = 0
}

// Read fills p with pseudo-random bytes. It never fails.
func (s *Stream) Read(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if s.off == len(s.buf) {
			s.refill()
		}
		c := copy(p, s.buf[s.off:])
		s.off += c
		p = p[c:]
	}
	return n, nil
}

// Uint64 draws a uniform uint64.
func (s *Stream) Uint64() uint64 {
	var b [8]byte
	s.Read(b[:])
	return binary.BigEndian.Uint64(b[:])
}

// Uint64n draws a uniform value in [0, n). It panics if n == 0.
// Rejection sampling removes modulo bias.
func (s *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prf: Uint64n(0)")
	}
	if n&(n-1) == 0 { // power of two
		return s.Uint64() & (n - 1)
	}
	limit := (^uint64(0) / n) * n
	for {
		v := s.Uint64()
		if v < limit {
			return v % n
		}
	}
}

// Intn draws a uniform int in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("prf: Intn with non-positive bound")
	}
	return int(s.Uint64n(uint64(n)))
}

// BigIntn draws a uniform *big.Int in [0, n). It panics if n <= 0.
func (s *Stream) BigIntn(n *big.Int) *big.Int {
	if n.Sign() <= 0 {
		panic("prf: BigIntn with non-positive bound")
	}
	bits := n.BitLen()
	bytes := (bits + 7) / 8
	buf := make([]byte, bytes)
	shift := uint(8*bytes - bits)
	v := new(big.Int)
	for {
		s.Read(buf)
		buf[0] &= byte(0xff >> shift)
		v.SetBytes(buf)
		if v.Cmp(n) < 0 {
			return v
		}
	}
}

// Float64 draws a uniform float64 in [0, 1) with 53 bits of precision.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n) via Fisher-Yates.
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Derive computes a fixed 32-byte subkey from key and label, for callers
// that need key material rather than a stream (e.g. the AES key in the
// verification protocol).
func Derive(key, label []byte) []byte {
	mac := hmac.New(sha256.New, key)
	mac.Write([]byte("smatch/derive/"))
	mac.Write(label)
	return mac.Sum(nil)
}
