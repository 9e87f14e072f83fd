package prf

import (
	"bytes"
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	key := []byte("0123456789abcdef0123456789abcdef")
	a := New(key, []byte("label"))
	b := New(key, []byte("label"))
	bufA := make([]byte, 1000)
	bufB := make([]byte, 1000)
	a.Read(bufA)
	b.Read(bufB)
	if !bytes.Equal(bufA, bufB) {
		t.Error("same (key,label) produced different streams")
	}
}

func TestLabelSeparation(t *testing.T) {
	key := []byte("0123456789abcdef0123456789abcdef")
	a := New(key, []byte("label-a"))
	b := New(key, []byte("label-b"))
	bufA := make([]byte, 64)
	bufB := make([]byte, 64)
	a.Read(bufA)
	b.Read(bufB)
	if bytes.Equal(bufA, bufB) {
		t.Error("different labels produced identical streams")
	}
}

func TestKeySeparation(t *testing.T) {
	a := New([]byte("key-one"), []byte("l"))
	b := New([]byte("key-two"), []byte("l"))
	bufA := make([]byte, 64)
	bufB := make([]byte, 64)
	a.Read(bufA)
	b.Read(bufB)
	if bytes.Equal(bufA, bufB) {
		t.Error("different keys produced identical streams")
	}
}

func TestReadChunkingInvariance(t *testing.T) {
	// Reading 100 bytes at once must equal reading them in odd-sized pieces.
	key := []byte("k")
	whole := make([]byte, 100)
	New(key, []byte("x")).Read(whole)

	s := New(key, []byte("x"))
	var pieces []byte
	for _, n := range []int{1, 7, 13, 32, 47} {
		p := make([]byte, n)
		s.Read(p)
		pieces = append(pieces, p...)
	}
	if !bytes.Equal(whole, pieces) {
		t.Error("chunked reads diverge from single read")
	}
}

func TestUint64nBounds(t *testing.T) {
	s := New([]byte("k"), []byte("bounds"))
	for _, n := range []uint64{1, 2, 3, 7, 8, 1000, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := s.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-squared sanity check over 10 buckets.
	s := New([]byte("k"), []byte("uniform"))
	const buckets, draws = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[s.Uint64n(buckets)]++
	}
	expected := float64(draws) / buckets
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 9 degrees of freedom: p=0.001 critical value is 27.88.
	if chi2 > 27.88 {
		t.Errorf("chi-squared %.2f too large; counts=%v", chi2, counts)
	}
}

func TestPanics(t *testing.T) {
	s := New([]byte("k"), nil)
	for name, fn := range map[string]func(){
		"Uint64n(0)":  func() { s.Uint64n(0) },
		"Intn(0)":     func() { s.Intn(0) },
		"Intn(-1)":    func() { s.Intn(-1) },
		"BigIntn(0)":  func() { s.BigIntn(big.NewInt(0)) },
		"BigIntn(-5)": func() { s.BigIntn(big.NewInt(-5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBigIntnBoundsAndDeterminism(t *testing.T) {
	n := new(big.Int).Lsh(big.NewInt(1), 200) // 2^200
	n.Sub(n, big.NewInt(17))
	a := New([]byte("k"), []byte("big"))
	b := New([]byte("k"), []byte("big"))
	for i := 0; i < 100; i++ {
		va := a.BigIntn(n)
		vb := b.BigIntn(n)
		if va.Cmp(vb) != 0 {
			t.Fatal("BigIntn nondeterministic")
		}
		if va.Sign() < 0 || va.Cmp(n) >= 0 {
			t.Fatalf("BigIntn out of range: %v", va)
		}
	}
}

func TestBigIntnSmallBound(t *testing.T) {
	s := New([]byte("k"), []byte("small"))
	one := big.NewInt(1)
	for i := 0; i < 50; i++ {
		if v := s.BigIntn(one); v.Sign() != 0 {
			t.Fatalf("BigIntn(1) = %v, want 0", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New([]byte("k"), []byte("f"))
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean %.4f far from 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New([]byte("k"), []byte("perm"))
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermDeterministicPerLabel(t *testing.T) {
	a := New([]byte("k"), []byte("p1")).Perm(20)
	b := New([]byte("k"), []byte("p1")).Perm(20)
	c := New([]byte("k"), []byte("p2")).Perm(20)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same label gave different permutations")
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different labels gave identical permutation (20 elements)")
	}
}

func TestDerive(t *testing.T) {
	k1 := Derive([]byte("key"), []byte("a"))
	k2 := Derive([]byte("key"), []byte("a"))
	k3 := Derive([]byte("key"), []byte("b"))
	if k1 != k2 {
		t.Error("Derive nondeterministic")
	}
	if k1 == k3 {
		t.Error("Derive ignores label")
	}
	if len(k1) != 32 {
		t.Errorf("Derive output length %d, want 32", len(k1))
	}
}

func TestQuickUint64nInRange(t *testing.T) {
	s := New([]byte("quick"), nil)
	prop := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return s.Uint64n(n) < n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkStreamRead32(b *testing.B) {
	s := New(make([]byte, 32), []byte("bench"))
	buf := make([]byte, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Read(buf)
	}
}

func BenchmarkBigIntn2048(b *testing.B) {
	s := New(make([]byte, 32), []byte("bench"))
	n := new(big.Int).Lsh(big.NewInt(1), 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BigIntn(n)
	}
}
