package group

import (
	"math/big"
	"sync"
	"testing"
)

// smallGroup and testGroups cache generated groups: safe-prime generation
// is the slow part of this suite.
var (
	smallGroupOnce sync.Once
	smallGroupVal  *Group

	testGroupsOnce sync.Once
	testGroupsVal  map[string]*Group
)

func smallGroup(t testing.TB) *Group {
	t.Helper()
	smallGroupOnce.Do(func() {
		g, err := Generate(256, nil)
		if err != nil {
			panic(err)
		}
		smallGroupVal = g
	})
	return smallGroupVal
}

// testGroups returns the groups the kernel tests run on: the built-in
// 2048-bit group and generated groups of 128, 130, 256 and 512 bits. At
// 130 bits the comb's tooth width is odd, so its second column is short;
// the generated sizes put the element encoding and the Legendre kernel's
// limbs at widths other than the built-in one. Read-only once built.
func testGroups(t testing.TB) map[string]*Group {
	t.Helper()
	small := smallGroup(t)
	testGroupsOnce.Do(func() {
		gs := map[string]*Group{"2048": Default2048(), "generated256": small}
		for name, bits := range map[string]int{"generated128": 128, "generated130": 130, "generated512": 512} {
			g, err := Generate(bits, nil)
			if err != nil {
				panic(err)
			}
			gs[name] = g
		}
		testGroupsVal = gs
	})
	return testGroupsVal
}

// TestDefaultGroupsValidate: the built-in group takes Validate's shortcut
// for P's primality, the generated ones the full checks; all pass.
func TestDefaultGroupsValidate(t *testing.T) {
	for name, g := range testGroups(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if err := g.Validate(); err != nil {
				t.Errorf("group %s invalid: %v", name, err)
			}
		})
	}
}

func TestGeneratedGroupValidates(t *testing.T) {
	g := smallGroup(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("generated group invalid: %v", err)
	}
}

func TestGenerateRejectsTinySizes(t *testing.T) {
	if _, err := Generate(64, nil); err == nil {
		t.Error("64-bit group accepted")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	base := smallGroup(t)
	cases := []struct {
		name   string
		mutate func(g *Group)
	}{
		{"nil P", func(g *Group) { g.P = nil }},
		{"composite P", func(g *Group) { g.P = new(big.Int).Add(g.P, big.NewInt(2)) }},
		{"wrong Q", func(g *Group) { g.Q = new(big.Int).Sub(g.Q, big.NewInt(2)) }},
		{"generator 1", func(g *Group) { g.G = big.NewInt(1) }},
		{"generator out of range", func(g *Group) { g.G = new(big.Int).Set(g.P) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := &Group{P: new(big.Int).Set(base.P), Q: new(big.Int).Set(base.Q), G: new(big.Int).Set(base.G)}
			tc.mutate(g)
			if err := g.Validate(); err == nil {
				t.Error("corrupted group validated")
			}
		})
	}
}

func TestExpHomomorphism(t *testing.T) {
	g := smallGroup(t)
	a, err := g.RandScalar(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.RandScalar(nil)
	if err != nil {
		t.Fatal(err)
	}
	// g^a * g^b == g^(a+b).
	lhs := g.Mul(g.Pow(a), g.Pow(b))
	sum := new(big.Int).Add(a, b)
	rhs := g.Pow(sum)
	if lhs.Cmp(rhs) != 0 {
		t.Error("g^a * g^b != g^(a+b)")
	}
	// (g^a)^b == (g^b)^a — the DH agreement the verification protocol uses.
	if g.Exp(g.Pow(a), b).Cmp(g.Exp(g.Pow(b), a)) != 0 {
		t.Error("(g^a)^b != (g^b)^a")
	}
}

func TestPowProducesSubgroupElements(t *testing.T) {
	g := smallGroup(t)
	for i := 0; i < 20; i++ {
		s, err := g.RandScalar(nil)
		if err != nil {
			t.Fatal(err)
		}
		x := g.Pow(s)
		if !g.IsElement(x) {
			t.Fatalf("g^s = %v not in subgroup", x)
		}
	}
}

func TestIsElementRejectsNonResidues(t *testing.T) {
	g := smallGroup(t)
	if g.IsElement(nil) || g.IsElement(big.NewInt(0)) || g.IsElement(g.P) {
		t.Error("degenerate values accepted as elements")
	}
	// Exactly half the nonzero residues are QRs; find a non-residue.
	found := false
	for v := int64(2); v < 200; v++ {
		if !g.IsElement(big.NewInt(v)) {
			found = true
			break
		}
	}
	if !found {
		t.Error("no quadratic non-residue found among small values (wildly unlikely)")
	}
}

func TestRandScalarRange(t *testing.T) {
	g := smallGroup(t)
	for i := 0; i < 50; i++ {
		s, err := g.RandScalar(nil)
		if err != nil {
			t.Fatal(err)
		}
		if s.Sign() <= 0 || s.Cmp(g.Q) >= 0 {
			t.Fatalf("scalar %v out of [1, Q)", s)
		}
	}
}

func TestElementEncodeDecodeRoundTrip(t *testing.T) {
	g := smallGroup(t)
	s, _ := g.RandScalar(nil)
	x := g.Pow(s)
	enc := g.EncodeElement(x)
	if len(enc) != g.ElementLen() {
		t.Fatalf("encoded length %d, want %d", len(enc), g.ElementLen())
	}
	got, err := g.DecodeElement(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(x) != 0 {
		t.Error("round trip changed the element")
	}
}

func TestDecodeElementRejectsGarbage(t *testing.T) {
	g := smallGroup(t)
	if _, err := g.DecodeElement([]byte{1, 2, 3}); err == nil {
		t.Error("short encoding accepted")
	}
	// An all-0xff buffer is >= P, hence not an element.
	buf := make([]byte, g.ElementLen())
	for i := range buf {
		buf[i] = 0xff
	}
	if _, err := g.DecodeElement(buf); err == nil {
		t.Error("out-of-range encoding accepted")
	}
}

func TestSubgroupClosure(t *testing.T) {
	g := smallGroup(t)
	a, _ := g.RandScalar(nil)
	b, _ := g.RandScalar(nil)
	x, y := g.Pow(a), g.Pow(b)
	if !g.IsElement(g.Mul(x, y)) {
		t.Error("product of subgroup elements left the subgroup")
	}
}

func BenchmarkPow2048(b *testing.B) {
	g := Default2048()
	s, _ := g.RandScalar(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Pow(s)
	}
}
