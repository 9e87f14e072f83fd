// Package gf implements arithmetic over binary Galois fields GF(2^m) for
// 2 <= m <= 16, using log/antilog tables generated from a primitive
// polynomial. It is the substrate for the Reed-Solomon codec in
// internal/rs, which S-MATCH uses as the fuzzy quantizer in profile key
// generation.
//
// Elements are represented as uint16 values in [0, 2^m). Addition and
// subtraction are XOR; multiplication and division go through discrete
// logarithms with respect to the primitive element alpha = 2.
package gf

import "fmt"

// defaultPrimitive holds a primitive polynomial (with the leading x^m term
// encoded as bit m) for each supported field size. These are the standard
// minimal-weight primitive polynomials used by CCSDS/DVB Reed-Solomon
// deployments.
var defaultPrimitive = map[uint]uint32{
	2:  0x7,     // x^2 + x + 1
	3:  0xb,     // x^3 + x + 1
	4:  0x13,    // x^4 + x + 1
	5:  0x25,    // x^5 + x^2 + 1
	6:  0x43,    // x^6 + x + 1
	7:  0x89,    // x^7 + x^3 + 1
	8:  0x11d,   // x^8 + x^4 + x^3 + x^2 + 1
	9:  0x211,   // x^9 + x^4 + 1
	10: 0x409,   // x^10 + x^3 + 1
	11: 0x805,   // x^11 + x^2 + 1
	12: 0x1053,  // x^12 + x^6 + x^4 + x + 1
	13: 0x201b,  // x^13 + x^4 + x^3 + x + 1
	14: 0x4443,  // x^14 + x^10 + x^6 + x + 1
	15: 0x8003,  // x^15 + x + 1
	16: 0x1100b, // x^16 + x^12 + x^3 + x + 1
}

// Elem is a field element. Only the low m bits are significant for a field
// GF(2^m); the Field methods never produce values outside that range.
type Elem = uint16

// Field is an immutable GF(2^m) arithmetic context. It is safe for
// concurrent use after construction.
type Field struct {
	m     uint
	size  int // 2^m
	mask  uint32
	poly  uint32
	exp   []Elem // exp[i] = alpha^i, doubled length to skip a mod
	log   []int  // log[x] = discrete log of x; log[0] unused
	order int    // multiplicative order 2^m - 1
}

// New returns the field GF(2^m) built from the standard primitive
// polynomial for that size. It returns an error if m is out of the
// supported range [2, 16].
func New(m uint) (*Field, error) {
	poly, ok := defaultPrimitive[m]
	if !ok {
		return nil, fmt.Errorf("gf: unsupported field size m=%d (want 2..16)", m)
	}
	return NewWithPolynomial(m, poly)
}

// NewWithPolynomial returns GF(2^m) built from the given primitive
// polynomial. The polynomial must have degree exactly m (bit m set) and must
// be primitive; primitivity is validated by checking that alpha=2 generates
// the full multiplicative group.
func NewWithPolynomial(m uint, poly uint32) (*Field, error) {
	if m < 2 || m > 16 {
		return nil, fmt.Errorf("gf: unsupported field size m=%d (want 2..16)", m)
	}
	if poly>>m != 1 {
		return nil, fmt.Errorf("gf: polynomial %#x does not have degree %d", poly, m)
	}
	f := &Field{
		m:     m,
		size:  1 << m,
		mask:  uint32(1<<m) - 1,
		poly:  poly,
		order: (1 << m) - 1,
	}
	f.exp = make([]Elem, 2*f.order)
	f.log = make([]int, f.size)
	for i := range f.log {
		f.log[i] = -1
	}
	x := uint32(1)
	for i := 0; i < f.order; i++ {
		if f.log[x] != -1 {
			return nil, fmt.Errorf("gf: polynomial %#x is not primitive (alpha cycle length %d < %d)", poly, i, f.order)
		}
		f.exp[i] = Elem(x)
		f.exp[i+f.order] = Elem(x)
		f.log[x] = i
		x <<= 1
		if x&(1<<m) != 0 {
			x ^= poly
		}
	}
	if x != 1 {
		return nil, fmt.Errorf("gf: polynomial %#x is not primitive (alpha^%d = %#x != 1)", poly, f.order, x)
	}
	return f, nil
}

// M returns the field extension degree m.
func (f *Field) M() uint { return f.m }

// Size returns the number of field elements, 2^m.
func (f *Field) Size() int { return f.size }

// Order returns the multiplicative group order, 2^m - 1.
func (f *Field) Order() int { return f.order }

// Contains reports whether x is a valid element of the field.
func (f *Field) Contains(x Elem) bool { return uint32(x) <= f.mask }

// Mul returns the product a*b.
func (f *Field) Mul(a, b Elem) Elem {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[f.log[a]+f.log[b]]
}

// Div returns a/b. It panics if b is zero: division by zero inside the RS
// decoder indicates a programming error, not a data error.
func (f *Field) Div(a, b Elem) Elem {
	if b == 0 {
		panic("gf: division by zero")
	}
	if a == 0 {
		return 0
	}
	d := f.log[a] - f.log[b]
	if d < 0 {
		d += f.order
	}
	return f.exp[d]
}

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func (f *Field) Inv(a Elem) Elem {
	if a == 0 {
		panic("gf: inverse of zero")
	}
	return f.exp[f.order-f.log[a]]
}

// Exp returns alpha^i for any integer i (negative exponents allowed).
func (f *Field) Exp(i int) Elem {
	i %= f.order
	if i < 0 {
		i += f.order
	}
	return f.exp[i]
}

// Log returns the discrete logarithm of a with respect to alpha.
// It panics if a is zero, which has no logarithm.
func (f *Field) Log(a Elem) int {
	if a == 0 {
		panic("gf: log of zero")
	}
	return f.log[a]
}

// Pow returns a^n for n >= 0, with 0^0 defined as 1.
func (f *Field) Pow(a Elem, n int) Elem {
	if n < 0 {
		return f.Inv(f.Pow(a, -n))
	}
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return f.exp[(f.log[a]*n)%f.order]
}
