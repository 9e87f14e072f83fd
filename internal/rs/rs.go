// Package rs implements Reed-Solomon codes over GF(2^m), including shortened
// codes, with a classical hard-decision decoder (syndromes, Berlekamp-Massey,
// Chien search, Forney's formula).
//
// S-MATCH (Liao et al., DSN 2014) uses an (n, d) RS code over GF(2^10) as a
// fuzzy quantizer: a user's profile attribute vector is treated as a received
// word and decoded to the nearest codeword, so that users whose profiles
// disagree in at most t = (n-k)/2 symbols land on the same codeword and hence
// derive the same profile key.
package rs

import (
	"errors"
	"fmt"
	"sort"

	"smatch/internal/gf"
)

// ErrTooManyErrors is returned when the received word is farther from every
// codeword than the code's correction radius, or when the decoder's candidate
// fails re-verification.
var ErrTooManyErrors = errors.New("rs: too many errors to correct")

// Code is an immutable Reed-Solomon code. A Code with K data symbols and
// N total symbols corrects up to (N-K)/2 symbol errors. N may be shorter
// than the field's natural length 2^m - 1 (a shortened code); shortening
// conceptually pads the word with leading zero data symbols.
type Code struct {
	field  *gf.Field
	n      int     // code length (shortened)
	k      int     // data symbols
	t      int     // correction radius (n-k)/2
	fcr    int     // first consecutive root exponent (we use 1)
	gen    gf.Poly // generator polynomial, degree n-k
	nRoots int     // n - k
}

// New constructs an RS code of length n with k data symbols over GF(2^m).
// Requirements: 2 <= m <= 16, 0 < k < n <= 2^m - 1.
func New(m uint, n, k int) (*Code, error) {
	field, err := gf.New(m)
	if err != nil {
		return nil, err
	}
	return NewWithField(field, n, k)
}

// NewWithField is like New but reuses an existing field context, which is
// useful when many codes share a field (the log/antilog tables dominate
// construction cost).
func NewWithField(field *gf.Field, n, k int) (*Code, error) {
	if n <= 0 || n > field.Order() {
		return nil, fmt.Errorf("rs: code length n=%d out of range (1..%d)", n, field.Order())
	}
	if k <= 0 || k >= n {
		return nil, fmt.Errorf("rs: data length k=%d out of range (1..%d)", k, n-1)
	}
	c := &Code{
		field:  field,
		n:      n,
		k:      k,
		t:      (n - k) / 2,
		fcr:    1,
		nRoots: n - k,
	}
	// Generator polynomial g(x) = prod_{i=fcr}^{fcr+nRoots-1} (x - alpha^i).
	g := gf.Poly{1}
	for i := 0; i < c.nRoots; i++ {
		root := field.Exp(c.fcr + i)
		g = field.PolyMul(g, gf.Poly{root, 1})
	}
	c.gen = g
	return c, nil
}

// N returns the code length.
func (c *Code) N() int { return c.n }

// K returns the number of data symbols.
func (c *Code) K() int { return c.k }

// T returns the correction radius: the maximum number of symbol errors the
// decoder is guaranteed to correct.
func (c *Code) T() int { return c.t }

// Field returns the underlying Galois field.
func (c *Code) Field() *gf.Field { return c.field }

// Encode systematically encodes k data symbols into an n-symbol codeword:
// the first k symbols of the result are the data, the last n-k the parity.
// It returns an error if data has the wrong length or contains symbols
// outside the field.
func (c *Code) Encode(data []gf.Elem) ([]gf.Elem, error) {
	if len(data) != c.k {
		return nil, fmt.Errorf("rs: encode: got %d data symbols, want %d", len(data), c.k)
	}
	for i, s := range data {
		if !c.field.Contains(s) {
			return nil, fmt.Errorf("rs: encode: symbol %d (%d) outside GF(2^%d)", i, s, c.field.M())
		}
	}
	// Systematic encoding: parity = (data(x) * x^(n-k)) mod g(x).
	// Our polynomials are coefficient-low-first, and we store the codeword
	// as [data..., parity...] with data[0] the highest-order coefficient,
	// matching the conventional transmission order.
	shifted := make(gf.Poly, c.n)
	for i, s := range data {
		// data[0] is coefficient of x^(n-1).
		shifted[c.n-1-i] = s
	}
	_, rem := c.field.PolyDivMod(shifted, c.gen)
	out := make([]gf.Elem, c.n)
	copy(out, data)
	for i := 0; i < c.nRoots; i++ {
		// parity symbol j corresponds to coefficient x^(nRoots-1-j).
		idx := c.nRoots - 1 - i
		var p gf.Elem
		if idx < len(rem) {
			p = rem[idx]
		}
		out[c.k+i] = p
	}
	return out, nil
}

// wordPoly converts a codeword in transmission order (index 0 = coefficient
// of x^(n-1)) to a low-first polynomial.
func (c *Code) wordPoly(word []gf.Elem) gf.Poly {
	p := make(gf.Poly, c.n)
	for i, s := range word {
		p[c.n-1-i] = s
	}
	return p
}

// Syndromes computes the n-k syndromes S_i = r(alpha^(fcr+i)) of a received
// word. All-zero syndromes mean the word is a codeword.
func (c *Code) Syndromes(received []gf.Elem) ([]gf.Elem, error) {
	if len(received) != c.n {
		return nil, fmt.Errorf("rs: syndromes: got %d symbols, want %d", len(received), c.n)
	}
	p := c.wordPoly(received)
	syn := make([]gf.Elem, c.nRoots)
	for i := range syn {
		syn[i] = c.field.PolyEval(p, c.field.Exp(c.fcr+i))
	}
	return syn, nil
}

// IsCodeword reports whether word is a valid codeword.
func (c *Code) IsCodeword(word []gf.Elem) bool {
	syn, err := c.Syndromes(word)
	if err != nil {
		return false
	}
	for _, s := range syn {
		if s != 0 {
			return false
		}
	}
	return true
}

// Decode corrects up to T() symbol errors in received and returns the
// corrected codeword along with the positions it changed. The input is not
// modified. If the word is beyond the correction radius, ErrTooManyErrors
// is returned.
func (c *Code) Decode(received []gf.Elem) (corrected []gf.Elem, errPos []int, err error) {
	syn, err := c.Syndromes(received)
	if err != nil {
		return nil, nil, err
	}
	allZero := true
	for _, s := range syn {
		if s != 0 {
			allZero = false
			break
		}
	}
	out := make([]gf.Elem, c.n)
	copy(out, received)
	if allZero {
		return out, nil, nil
	}

	sigma, omega, err := c.berlekampMassey(syn)
	if err != nil {
		return nil, nil, err
	}
	positions, err := c.chienSearch(sigma)
	if err != nil {
		return nil, nil, err
	}
	if err := c.forney(out, sigma, omega, positions); err != nil {
		return nil, nil, err
	}
	// Re-verify: Berlekamp-Massey can emit a bogus locator when the error
	// count exceeds t; the corrected word must be an actual codeword.
	if !c.IsCodeword(out) {
		return nil, nil, ErrTooManyErrors
	}
	return out, positions, nil
}

// berlekampMassey computes the error-locator polynomial sigma and the
// error-evaluator polynomial omega from the syndromes.
func (c *Code) berlekampMassey(syn []gf.Elem) (sigma, omega gf.Poly, err error) {
	f := c.field
	sigma = gf.Poly{1}
	b := gf.Poly{1} // previous sigma
	L := 0          // current number of assumed errors
	x := 1          // shift since last length change
	var bDisc gf.Elem = 1

	for i := 0; i < c.nRoots; i++ {
		// Discrepancy: delta = S_i + sum_{j=1}^{L} sigma_j * S_{i-j}.
		var delta gf.Elem = syn[i]
		for j := 1; j <= L && j < len(sigma); j++ {
			if i-j >= 0 {
				delta ^= f.Mul(sigma[j], syn[i-j])
			}
		}
		if delta == 0 {
			x++
			continue
		}
		if 2*L <= i {
			// Length change: save sigma before updating.
			prev := make(gf.Poly, len(sigma))
			copy(prev, sigma)
			coef := f.Div(delta, bDisc)
			sigma = f.PolyAdd(sigma, f.PolyMulX(f.PolyScale(b, coef), x))
			L = i + 1 - L
			b = prev
			bDisc = delta
			x = 1
		} else {
			coef := f.Div(delta, bDisc)
			sigma = f.PolyAdd(sigma, f.PolyMulX(f.PolyScale(b, coef), x))
			x++
		}
	}
	if L > c.t || gf.PolyDegree(sigma) != L {
		return nil, nil, ErrTooManyErrors
	}
	// Omega(x) = [S(x) * sigma(x)] mod x^(nRoots), where
	// S(x) = sum syn[i] x^i.
	sPoly := make(gf.Poly, len(syn))
	copy(sPoly, syn)
	prod := f.PolyMul(sPoly, sigma)
	if len(prod) > c.nRoots {
		prod = prod[:c.nRoots]
	}
	return sigma, gf.PolyTrim(prod), nil
}

// chienSearch finds the error positions: the roots of sigma are alpha^(-pos)
// for transmission positions pos (position 0 = coefficient of x^(n-1)).
func (c *Code) chienSearch(sigma gf.Poly) ([]int, error) {
	f := c.field
	deg := gf.PolyDegree(sigma)
	var positions []int
	// Coefficient index in the word polynomial runs 0..n-1; transmission
	// position is n-1-coefIdx. A root at alpha^(-coefIdx) marks an error
	// at coefficient coefIdx.
	for coefIdx := 0; coefIdx < c.n; coefIdx++ {
		xinv := f.Exp(-coefIdx)
		if f.PolyEval(sigma, xinv) == 0 {
			positions = append(positions, c.n-1-coefIdx)
		}
	}
	if len(positions) != deg {
		return nil, ErrTooManyErrors
	}
	sort.Ints(positions)
	return positions, nil
}

// forney computes error magnitudes via Forney's formula and applies them to
// word in place. positions are transmission positions.
func (c *Code) forney(word []gf.Elem, sigma, omega gf.Poly, positions []int) error {
	f := c.field
	sigmaDeriv := f.PolyDeriv(sigma)
	for _, pos := range positions {
		coefIdx := c.n - 1 - pos
		xinv := f.Exp(-coefIdx)
		denom := f.PolyEval(sigmaDeriv, xinv)
		if denom == 0 {
			return ErrTooManyErrors
		}
		num := f.PolyEval(omega, xinv)
		// Magnitude e = X^(1-fcr) * omega(X^-1) / sigma'(X^-1) with
		// X = alpha^coefIdx; for fcr=1 the leading factor is 1.
		mag := f.Div(num, denom)
		if c.fcr != 1 {
			mag = f.Mul(mag, f.Pow(f.Exp(coefIdx), 1-c.fcr))
		}
		word[pos] ^= mag
	}
	return nil
}
