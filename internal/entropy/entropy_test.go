package entropy

import (
	"math"
	"math/big"
	"testing"

	"smatch/internal/prf"
)

func coins(label string) *prf.Stream {
	return prf.New([]byte("entropy-test-key"), []byte(label))
}

func TestShannonKnownValues(t *testing.T) {
	cases := []struct {
		probs []float64
		want  float64
	}{
		{[]float64{1}, 0},
		{[]float64{0.5, 0.5}, 1},
		{[]float64{0.25, 0.25, 0.25, 0.25}, 2},
		{[]float64{1, 0, 0}, 0},
		// The paper's education example: 0.3/0.4/0.2/0.1.
		{[]float64{0.3, 0.4, 0.2, 0.1}, 1.846},
	}
	for _, tc := range cases {
		if got := Shannon(tc.probs); math.Abs(got-tc.want) > 0.001 {
			t.Errorf("Shannon(%v) = %.4f, want %.4f", tc.probs, got, tc.want)
		}
	}
}

func TestEmpiricalProbs(t *testing.T) {
	got := EmpiricalProbs([]int{3, 1, 0})
	want := []float64{0.75, 0.25, 0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("EmpiricalProbs = %v, want %v", got, want)
		}
	}
	// All-zero counts yield all-zero probs, not NaN.
	for _, p := range EmpiricalProbs([]int{0, 0}) {
		if p != 0 {
			t.Error("zero counts produced nonzero probabilities")
		}
	}
}

func TestIsLandmark(t *testing.T) {
	probs := []float64{0.7, 0.2, 0.1}
	if !IsLandmark(probs, 0.6) {
		t.Error("0.7-heavy attribute not landmark at tau=0.6")
	}
	if IsLandmark(probs, 0.8) {
		t.Error("0.7-heavy attribute landmark at tau=0.8")
	}
	if !IsLandmark(probs, 0.7) {
		t.Error("threshold should be inclusive")
	}
}

func TestNewMapperValidation(t *testing.T) {
	cases := []struct {
		name  string
		probs []float64
		k     uint
	}{
		{"one value", []float64{1}, 64},
		{"tiny space", []float64{0.5, 0.5}, 2},
		{"negative prob", []float64{-0.5, 1.5}, 64},
		{"bad sum", []float64{0.5, 0.2}, 64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewMapper(tc.probs, tc.k); err == nil {
				t.Error("invalid mapper accepted")
			}
		})
	}
}

func TestMapUnmapRoundTrip(t *testing.T) {
	probs := []float64{0.3, 0.4, 0.2, 0.1}
	for _, k := range []uint{16, 64, 256, 1024} {
		m, err := NewMapper(probs, k)
		if err != nil {
			t.Fatal(err)
		}
		cs := coins("roundtrip")
		for trial := 0; trial < 50; trial++ {
			for j := range probs {
				s, err := m.Map(j, cs)
				if err != nil {
					t.Fatal(err)
				}
				got, err := m.Unmap(s)
				if err != nil {
					t.Fatal(err)
				}
				if got != j {
					t.Fatalf("k=%d: Unmap(Map(%d)) = %d", k, j, got)
				}
			}
		}
	}
}

func TestMapRejectsBadValue(t *testing.T) {
	m, _ := NewMapper([]float64{0.5, 0.5}, 64)
	if _, err := m.Map(-1, coins("x")); err == nil {
		t.Error("negative value accepted")
	}
	if _, err := m.Map(2, coins("x")); err == nil {
		t.Error("out-of-domain value accepted")
	}
}

func TestUnmapRejectsOutOfSpace(t *testing.T) {
	m, _ := NewMapper([]float64{0.5, 0.5}, 16)
	if _, err := m.Unmap(big.NewInt(-1)); err == nil {
		t.Error("negative mapped value accepted")
	}
	if _, err := m.Unmap(new(big.Int).Lsh(big.NewInt(1), 20)); err == nil {
		t.Error("mapped value beyond message space accepted")
	}
}

func TestMappingPreservesValueOrder(t *testing.T) {
	// Strings of value j must all be below strings of value j+1: the
	// big-jump layout is monotone, which is what keeps OPE comparisons
	// meaningful after mapping.
	probs := []float64{0.25, 0.25, 0.25, 0.25}
	m, err := NewMapper(probs, 32)
	if err != nil {
		t.Fatal(err)
	}
	cs := coins("order")
	for trial := 0; trial < 100; trial++ {
		var prev *big.Int
		for j := range probs {
			s, err := m.Map(j, cs)
			if err != nil {
				t.Fatal(err)
			}
			if prev != nil && s.Cmp(prev) <= 0 {
				t.Fatalf("mapped value of %d (%v) not above value %d (%v)", j, s, j-1, prev)
			}
			prev = s
		}
	}
}

func TestBigJumpGapExists(t *testing.T) {
	// The gap between consecutive sub-ranges must be at least R (strings
	// occupy [jW, jW+R) with W = 2R): check max string of value j plus R
	// is below min string of value j+1... structurally: jW + R <= (j+1)W.
	m, _ := NewMapper([]float64{0.5, 0.5}, 32)
	maxOfZero := new(big.Int).Add(new(big.Int).Set(m.r), big.NewInt(-1))
	minOfOne := new(big.Int).Set(m.width)
	gap := new(big.Int).Sub(minOfOne, maxOfZero)
	if gap.Cmp(m.r) < 0 {
		t.Errorf("jump gap %v smaller than sub-range width %v", gap, m.r)
	}
}

func TestOneToNMappingSpreads(t *testing.T) {
	// The same value must map to many distinct strings.
	m, _ := NewMapper([]float64{0.5, 0.5}, 64)
	cs := coins("spread")
	seen := make(map[string]bool)
	for i := 0; i < 200; i++ {
		s, err := m.Map(0, cs)
		if err != nil {
			t.Fatal(err)
		}
		seen[s.String()] = true
	}
	if len(seen) < 150 {
		t.Errorf("200 mappings produced only %d distinct strings", len(seen))
	}
}

func TestMappedEntropyIncreases(t *testing.T) {
	// A heavily skewed attribute has low original entropy; after mapping
	// the entropy must approach k - log2(2n).
	probs := []float64{0.85, 0.05, 0.04, 0.03, 0.02, 0.01}
	for _, k := range []uint{64, 128, 256, 512, 1024, 2048} {
		m, err := NewMapper(probs, k)
		if err != nil {
			t.Fatal(err)
		}
		orig := Shannon(probs)
		mapped := m.MappedEntropy()
		if mapped <= orig {
			t.Fatalf("k=%d: mapped entropy %.2f not above original %.2f", k, mapped, orig)
		}
		perfect := float64(k)
		slack := math.Log2(2 * float64(len(probs)))
		if mapped > perfect {
			t.Fatalf("k=%d: mapped entropy %.2f exceeds perfect %.2f", k, mapped, perfect)
		}
		if mapped < perfect-slack-2 {
			t.Fatalf("k=%d: mapped entropy %.2f too far below perfect %.2f (slack %.2f)", k, mapped, perfect, slack)
		}
	}
}

func TestMappedEntropyMonotoneInK(t *testing.T) {
	probs := []float64{0.6, 0.3, 0.1}
	var prev float64
	for _, k := range []uint{32, 64, 128, 256, 512} {
		m, err := NewMapper(probs, k)
		if err != nil {
			t.Fatal(err)
		}
		h := m.MappedEntropy()
		if h <= prev {
			t.Fatalf("entropy not increasing in k: %.2f at k=%d after %.2f", h, k, prev)
		}
		prev = h
	}
}

func TestEmpiricalMappedEntropyMatchesAnalytic(t *testing.T) {
	// For a small message space, compare the analytic MappedEntropy with
	// the empirical entropy of many mapped samples.
	probs := []float64{0.5, 0.3, 0.2}
	m, err := NewMapper(probs, 10) // 1024-point space
	if err != nil {
		t.Fatal(err)
	}
	cs := coins("empirical")
	counts := make(map[string]int)
	const draws = 200000
	for i := 0; i < draws; i++ {
		// Sample a value from probs, then map it.
		x := cs.Float64()
		j := 0
		switch {
		case x < 0.5:
			j = 0
		case x < 0.8:
			j = 1
		default:
			j = 2
		}
		s, err := m.Map(j, cs)
		if err != nil {
			t.Fatal(err)
		}
		counts[s.String()]++
	}
	var emp float64
	for _, c := range counts {
		p := float64(c) / draws
		emp -= p * math.Log2(p)
	}
	analytic := m.MappedEntropy()
	// Finite-sample entropy underestimates; allow a loose band.
	if math.Abs(emp-analytic) > 0.35 {
		t.Errorf("empirical entropy %.3f far from analytic %.3f", emp, analytic)
	}
}

func TestChainEntropy(t *testing.T) {
	m1, _ := NewMapper([]float64{0.9, 0.1}, 64)
	m2, _ := NewMapper([]float64{0.25, 0.25, 0.25, 0.25}, 64)
	h, err := ChainEntropy([]*Mapper{m1, m2})
	if err != nil {
		t.Fatal(err)
	}
	avg := (m1.MappedEntropy() + m2.MappedEntropy()) / 2
	want := 1 + avg // log2(2) = 1
	if math.Abs(h-want) > 1e-9 {
		t.Errorf("ChainEntropy = %.4f, want %.4f", h, want)
	}
	// Clamped at k.
	if h > 64 {
		t.Errorf("ChainEntropy %.2f exceeds message space", h)
	}
}

func TestChainEntropyErrors(t *testing.T) {
	if _, err := ChainEntropy(nil); err == nil {
		t.Error("empty mapper list accepted")
	}
	m1, _ := NewMapper([]float64{0.5, 0.5}, 64)
	m2, _ := NewMapper([]float64{0.5, 0.5}, 128)
	if _, err := ChainEntropy([]*Mapper{m1, m2}); err == nil {
		t.Error("mixed message-space sizes accepted")
	}
}

func TestLog2Big(t *testing.T) {
	cases := []struct {
		v    *big.Int
		want float64
	}{
		{big.NewInt(1), 0},
		{big.NewInt(2), 1},
		{big.NewInt(1024), 10},
		{new(big.Int).Lsh(big.NewInt(1), 2000), 2000},
	}
	for _, tc := range cases {
		if got := log2Big(tc.v); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("log2Big(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

func BenchmarkMap64(b *testing.B) {
	m, _ := NewMapper([]float64{0.3, 0.4, 0.2, 0.1}, 64)
	cs := coins("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Map(i%4, cs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMap2048(b *testing.B) {
	m, _ := NewMapper([]float64{0.3, 0.4, 0.2, 0.1}, 2048)
	cs := coins("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Map(i%4, cs); err != nil {
			b.Fatal(err)
		}
	}
}
