package gf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustField(t *testing.T, m uint) *Field {
	t.Helper()
	f, err := New(m)
	if err != nil {
		t.Fatalf("New(%d): %v", m, err)
	}
	return f
}

func TestNewSupportedSizes(t *testing.T) {
	for m := uint(2); m <= 16; m++ {
		f, err := New(m)
		if err != nil {
			t.Fatalf("New(%d): %v", m, err)
		}
		if got, want := f.Size(), 1<<m; got != want {
			t.Errorf("m=%d: Size() = %d, want %d", m, got, want)
		}
		if got, want := f.Order(), (1<<m)-1; got != want {
			t.Errorf("m=%d: Order() = %d, want %d", m, got, want)
		}
		if f.M() != m {
			t.Errorf("m=%d: M() = %d", m, f.M())
		}
	}
}

func TestNewUnsupportedSizes(t *testing.T) {
	for _, m := range []uint{0, 1, 17, 32} {
		if _, err := New(m); err == nil {
			t.Errorf("New(%d) succeeded, want error", m)
		}
	}
}

func TestNewWithPolynomialRejectsBadDegree(t *testing.T) {
	if _, err := NewWithPolynomial(8, 0x1d); err == nil {
		t.Error("degree-4 polynomial accepted for m=8")
	}
	if _, err := NewWithPolynomial(8, 0x21d); err == nil {
		t.Error("degree-9 polynomial accepted for m=8")
	}
}

func TestNewWithPolynomialRejectsNonPrimitive(t *testing.T) {
	// x^4 + x^3 + x^2 + x + 1 has degree 4 and is irreducible but not
	// primitive (alpha has order 5, not 15).
	if _, err := NewWithPolynomial(4, 0x1f); err == nil {
		t.Error("non-primitive polynomial 0x1f accepted for m=4")
	}
	// x^4 (reducible) must also be rejected.
	if _, err := NewWithPolynomial(4, 0x10); err == nil {
		t.Error("reducible polynomial 0x10 accepted for m=4")
	}
}

func TestMulKnownValuesGF256(t *testing.T) {
	// Known products in GF(2^8) with the AES-adjacent polynomial 0x11d
	// (the CCSDS polynomial used here, cross-checked by hand).
	f := mustField(t, 8)
	cases := []struct{ a, b, want Elem }{
		{0, 0, 0},
		{0, 7, 0},
		{1, 0xab, 0xab},
		{2, 2, 4},
		{2, 0x80, 0x1d}, // overflow wraps through the polynomial
		{3, 3, 5},
	}
	for _, tc := range cases {
		if got := f.Mul(tc.a, tc.b); got != tc.want {
			t.Errorf("Mul(%#x, %#x) = %#x, want %#x", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestFieldAxioms(t *testing.T) {
	// Exhaustive checks on a small field, randomized checks on GF(2^10).
	t.Run("exhaustive-gf16", func(t *testing.T) {
		f := mustField(t, 4)
		n := Elem(f.Size())
		for a := Elem(0); a < n; a++ {
			for b := Elem(0); b < n; b++ {
				if f.Mul(a, b) != f.Mul(b, a) {
					t.Fatalf("commutativity fails at (%d,%d)", a, b)
				}
				for c := Elem(0); c < n; c++ {
					if f.Mul(a, f.Mul(b, c)) != f.Mul(f.Mul(a, b), c) {
						t.Fatalf("associativity fails at (%d,%d,%d)", a, b, c)
					}
					if f.Mul(a, b^c) != f.Mul(a, b)^f.Mul(a, c) {
						t.Fatalf("distributivity fails at (%d,%d,%d)", a, b, c)
					}
				}
			}
		}
	})
	t.Run("random-gf1024", func(t *testing.T) {
		f := mustField(t, 10)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 20000; i++ {
			a := Elem(rng.Intn(f.Size()))
			b := Elem(rng.Intn(f.Size()))
			c := Elem(rng.Intn(f.Size()))
			if f.Mul(a, f.Mul(b, c)) != f.Mul(f.Mul(a, b), c) {
				t.Fatalf("associativity fails at (%d,%d,%d)", a, b, c)
			}
			if f.Mul(a, b^c) != f.Mul(a, b)^f.Mul(a, c) {
				t.Fatalf("distributivity fails at (%d,%d,%d)", a, b, c)
			}
		}
	})
}

func TestInvAndDiv(t *testing.T) {
	f := mustField(t, 10)
	for a := Elem(1); int(a) < f.Size(); a++ {
		inv := f.Inv(a)
		if f.Mul(a, inv) != 1 {
			t.Fatalf("a * Inv(a) != 1 for a=%d", a)
		}
		if f.Div(1, a) != inv {
			t.Fatalf("Div(1,a) != Inv(a) for a=%d", a)
		}
	}
	if got := f.Div(0, 5); got != 0 {
		t.Errorf("Div(0,5) = %d, want 0", got)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	f := mustField(t, 4)
	assertPanics(t, "Div", func() { f.Div(3, 0) })
	assertPanics(t, "Inv", func() { f.Inv(0) })
	assertPanics(t, "Log", func() { f.Log(0) })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s(0) did not panic", name)
		}
	}()
	fn()
}

func TestExpLogRoundTrip(t *testing.T) {
	f := mustField(t, 10)
	for i := 0; i < f.Order(); i++ {
		if got := f.Log(f.Exp(i)); got != i {
			t.Fatalf("Log(Exp(%d)) = %d", i, got)
		}
	}
	// Negative and out-of-range exponents wrap.
	if f.Exp(-1) != f.Exp(f.Order()-1) {
		t.Error("Exp(-1) does not wrap")
	}
	if f.Exp(f.Order()) != 1 {
		t.Error("Exp(order) != 1")
	}
}

func TestPow(t *testing.T) {
	f := mustField(t, 8)
	if got := f.Pow(0, 0); got != 1 {
		t.Errorf("Pow(0,0) = %d, want 1", got)
	}
	if got := f.Pow(0, 5); got != 0 {
		t.Errorf("Pow(0,5) = %d, want 0", got)
	}
	for a := Elem(1); a < 40; a++ {
		want := Elem(1)
		for n := 0; n < 12; n++ {
			if got := f.Pow(a, n); got != want {
				t.Fatalf("Pow(%d,%d) = %d, want %d", a, n, got, want)
			}
			want = f.Mul(want, a)
		}
		// Negative exponent is the inverse power.
		if f.Mul(f.Pow(a, -3), f.Pow(a, 3)) != 1 {
			t.Fatalf("Pow(%d,-3) * Pow(%d,3) != 1", a, a)
		}
	}
}

func TestFermatLittleTheorem(t *testing.T) {
	f := mustField(t, 10)
	for a := Elem(1); int(a) < f.Size(); a++ {
		if got := f.Pow(a, f.Order()); got != 1 {
			t.Fatalf("a^(2^m-1) = %d for a=%d, want 1", got, a)
		}
	}
}

func TestQuickMulInverseProperty(t *testing.T) {
	f := mustField(t, 12)
	prop := func(a, b Elem) bool {
		a &= Elem(f.Size() - 1)
		b &= Elem(f.Size() - 1)
		if b == 0 {
			return true
		}
		return f.Div(f.Mul(a, b), b) == a
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestContains(t *testing.T) {
	f := mustField(t, 6)
	if !f.Contains(63) || f.Contains(64) {
		t.Error("Contains boundary wrong for m=6")
	}
}

func BenchmarkMulGF1024(b *testing.B) {
	f, _ := New(10)
	b.ReportAllocs()
	var acc Elem = 1
	for i := 0; i < b.N; i++ {
		acc = f.Mul(acc, 517) | 1
	}
	_ = acc
}
