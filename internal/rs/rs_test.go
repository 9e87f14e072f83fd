package rs

import (
	"errors"
	"math/rand"
	"testing"

	"smatch/internal/gf"
)

func mustCode(t testing.TB, m uint, n, k int) *Code {
	t.Helper()
	c, err := New(m, n, k)
	if err != nil {
		t.Fatalf("New(%d,%d,%d): %v", m, n, k, err)
	}
	return c
}

func randData(rng *rand.Rand, c *Code) []gf.Elem {
	d := make([]gf.Elem, c.K())
	for i := range d {
		d[i] = gf.Elem(rng.Intn(c.Field().Size()))
	}
	return d
}

func corrupt(rng *rand.Rand, c *Code, word []gf.Elem, nErrs int) ([]gf.Elem, map[int]bool) {
	out := make([]gf.Elem, len(word))
	copy(out, word)
	touched := map[int]bool{}
	for len(touched) < nErrs {
		pos := rng.Intn(c.N())
		if touched[pos] {
			continue
		}
		delta := gf.Elem(1 + rng.Intn(c.Field().Size()-1))
		out[pos] ^= delta
		touched[pos] = true
	}
	return out, touched
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		m    uint
		n, k int
	}{
		{10, 0, 1},    // n too small
		{10, 1024, 5}, // n > 2^m - 1
		{10, 15, 15},  // k == n
		{10, 15, 0},   // k == 0
		{10, 15, 16},  // k > n
		{1, 7, 3},     // bad field
	}
	for _, tc := range cases {
		if _, err := New(tc.m, tc.n, tc.k); err == nil {
			t.Errorf("New(%d,%d,%d) succeeded, want error", tc.m, tc.n, tc.k)
		}
	}
}

func TestAccessors(t *testing.T) {
	c := mustCode(t, 10, 63, 31)
	if c.N() != 63 || c.K() != 31 || c.T() != 16 {
		t.Errorf("N,K,T = %d,%d,%d", c.N(), c.K(), c.T())
	}
	if c.Field().M() != 10 {
		t.Errorf("field m = %d", c.Field().M())
	}
}

func TestEncodeSystematic(t *testing.T) {
	c := mustCode(t, 8, 15, 9)
	rng := rand.New(rand.NewSource(1))
	data := randData(rng, c)
	word, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(word) != c.N() {
		t.Fatalf("codeword length %d, want %d", len(word), c.N())
	}
	for i := range data {
		if word[i] != data[i] {
			t.Fatalf("encoding not systematic at %d", i)
		}
	}
	if !c.IsCodeword(word) {
		t.Fatal("encoded word has nonzero syndromes")
	}
}

func TestEncodeValidation(t *testing.T) {
	c := mustCode(t, 4, 15, 9)
	if _, err := c.Encode(make([]gf.Elem, 8)); err == nil {
		t.Error("short data accepted")
	}
	bad := make([]gf.Elem, 9)
	bad[3] = 16 // outside GF(2^4)
	if _, err := c.Encode(bad); err == nil {
		t.Error("out-of-field symbol accepted")
	}
}

func TestSyndromesValidation(t *testing.T) {
	c := mustCode(t, 8, 15, 9)
	if _, err := c.Syndromes(make([]gf.Elem, 14)); err == nil {
		t.Error("wrong-length word accepted")
	}
}

func TestDecodeCleanWord(t *testing.T) {
	c := mustCode(t, 8, 15, 9)
	rng := rand.New(rand.NewSource(2))
	data := randData(rng, c)
	word, _ := c.Encode(data)
	got, errPos, err := c.Decode(word)
	if err != nil {
		t.Fatal(err)
	}
	if len(errPos) != 0 {
		t.Errorf("clean word reported errors at %v", errPos)
	}
	for i := range word {
		if got[i] != word[i] {
			t.Fatalf("clean word changed at %d", i)
		}
	}
}

func TestDecodeCorrectsUpToT(t *testing.T) {
	configs := []struct {
		m    uint
		n, k int
	}{
		{8, 15, 9},
		{8, 255, 223},
		{10, 30, 20}, // shortened GF(2^10) code like S-MATCH's profile quantizer
		{10, 17, 6},
	}
	for _, cfg := range configs {
		c := mustCode(t, cfg.m, cfg.n, cfg.k)
		rng := rand.New(rand.NewSource(int64(cfg.n)))
		for trial := 0; trial < 50; trial++ {
			data := randData(rng, c)
			word, err := c.Encode(data)
			if err != nil {
				t.Fatal(err)
			}
			for nErrs := 1; nErrs <= c.T(); nErrs++ {
				rx, touched := corrupt(rng, c, word, nErrs)
				got, errPos, err := c.Decode(rx)
				if err != nil {
					t.Fatalf("(%d,%d) t=%d: decode with %d errors: %v", cfg.n, cfg.k, c.T(), nErrs, err)
				}
				for i := range word {
					if got[i] != word[i] {
						t.Fatalf("(%d,%d): wrong correction at %d with %d errors", cfg.n, cfg.k, i, nErrs)
					}
				}
				if len(errPos) != nErrs {
					t.Fatalf("(%d,%d): reported %d error positions, want %d", cfg.n, cfg.k, len(errPos), nErrs)
				}
				for _, p := range errPos {
					if !touched[p] {
						t.Fatalf("(%d,%d): reported untouched position %d", cfg.n, cfg.k, p)
					}
				}
			}
		}
	}
}

func TestDecodeBeyondRadiusDetectedOrWrongCodeword(t *testing.T) {
	// Beyond t errors, the decoder must either return ErrTooManyErrors or
	// decode to some *valid* codeword (a miscorrection); it must never
	// return a non-codeword.
	c := mustCode(t, 8, 15, 9) // t = 3
	rng := rand.New(rand.NewSource(3))
	var detected, miscorrected int
	for trial := 0; trial < 500; trial++ {
		data := randData(rng, c)
		word, _ := c.Encode(data)
		rx, _ := corrupt(rng, c, word, c.T()+2)
		got, _, err := c.Decode(rx)
		if err != nil {
			if !errors.Is(err, ErrTooManyErrors) {
				t.Fatalf("unexpected error: %v", err)
			}
			detected++
			continue
		}
		if !c.IsCodeword(got) {
			t.Fatal("decoder returned a non-codeword")
		}
		miscorrected++
	}
	if detected == 0 {
		t.Error("no beyond-radius corruption was ever detected")
	}
	t.Logf("beyond-radius: %d detected, %d miscorrected", detected, miscorrected)
}

func TestLinearity(t *testing.T) {
	// RS codes are linear: the sum of two codewords is a codeword.
	c := mustCode(t, 8, 31, 19)
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		a, _ := c.Encode(randData(rng, c))
		b, _ := c.Encode(randData(rng, c))
		sum := make([]gf.Elem, c.N())
		for i := range sum {
			sum[i] = a[i] ^ b[i]
		}
		if !c.IsCodeword(sum) {
			t.Fatal("sum of codewords is not a codeword")
		}
	}
}

func TestSharedFieldCodes(t *testing.T) {
	field, err := gf.New(10)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := NewWithField(field, 40, 20)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewWithField(field, 20, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Field() != c2.Field() {
		t.Error("codes do not share the field")
	}
}

func TestIsCodewordWrongLength(t *testing.T) {
	c := mustCode(t, 8, 15, 9)
	if c.IsCodeword(make([]gf.Elem, 10)) {
		t.Error("wrong-length word accepted as codeword")
	}
}

func BenchmarkEncode255_223(b *testing.B) {
	c := mustCode(b, 8, 255, 223)
	rng := rand.New(rand.NewSource(1))
	data := randData(rng, c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode255_223_16errs(b *testing.B) {
	c := mustCode(b, 8, 255, 223)
	rng := rand.New(rand.NewSource(1))
	data := randData(rng, c)
	word, _ := c.Encode(data)
	rx, _ := corrupt(rng, c, word, c.T())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Decode(rx); err != nil {
			b.Fatal(err)
		}
	}
}
