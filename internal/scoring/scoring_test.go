package scoring

import (
	"bytes"
	"math/big"
	"strings"
	"testing"

	"smatch/internal/profile"
)

func testSchema(d int) profile.Schema {
	s := profile.Schema{Attrs: make([]profile.AttributeSpec, d)}
	for i := range s.Attrs {
		s.Attrs[i] = profile.AttributeSpec{Name: string(rune('a' + i)), NumValues: 16}
	}
	return s
}

func TestUnitDetection(t *testing.T) {
	for _, w := range []Weights{nil, {}, {1}, {1, 1, 1}, {1, 1, 1, 1, 1}} {
		if !w.IsUnit() {
			t.Errorf("%v not detected as unit", w)
		}
		if w.ExtraBits() != 0 {
			t.Errorf("%v: ExtraBits %d, want 0", w, w.ExtraBits())
		}
		if w.Canonical() != nil {
			t.Errorf("%v: non-nil canonical encoding", w)
		}
	}
	for _, w := range []Weights{{2}, {1, 1, 3}, {MaxWeight}} {
		if w.IsUnit() {
			t.Errorf("%v detected as unit", w)
		}
		if w.Canonical() == nil {
			t.Errorf("%v: nil canonical encoding", w)
		}
	}
}

func TestExtraBits(t *testing.T) {
	cases := []struct {
		max  uint32
		want uint
	}{{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1 << 10, 10}, {MaxWeight, 20}}
	for _, c := range cases {
		w := Weights{1, c.max}
		if got := w.ExtraBits(); got != c.want {
			t.Errorf("max weight %d: ExtraBits %d, want %d", c.max, got, c.want)
		}
		// The defining property: w_i·A' < 2^(k+e) for A' < 2^k. With k=0
		// (A'=anything < 1 is trivial), check directly that max <= 2^e and
		// that e is minimal.
		if uint64(c.max) > 1<<c.want {
			t.Errorf("max weight %d exceeds 2^%d", c.max, c.want)
		}
		if c.want > 0 && uint64(c.max) <= 1<<(c.want-1) {
			t.Errorf("ExtraBits %d not minimal for max weight %d", c.want, c.max)
		}
	}
}

func TestValidate(t *testing.T) {
	schema := testSchema(3)
	if err := (Weights)(nil).Validate(schema); err != nil {
		t.Errorf("nil weights rejected: %v", err)
	}
	if err := (Weights{1, 2, 3}).Validate(schema); err != nil {
		t.Errorf("valid weights rejected: %v", err)
	}
	if err := (Weights{1, 2}).Validate(schema); err == nil {
		t.Error("wrong-length weights accepted")
	}
	if err := (Weights{1, 0, 3}).Validate(schema); err == nil {
		t.Error("zero weight accepted")
	}
	if err := (Weights{1, MaxWeight + 1, 3}).Validate(schema); err == nil {
		t.Error("over-MaxWeight weight accepted")
	}
}

func TestCanonicalInjective(t *testing.T) {
	// Distinct scaling vectors must encode distinctly (the key-binding
	// soundness requirement); notably a length prefix must separate
	// {258} from {1,2}-style confusions across lengths.
	vecs := []Weights{{2}, {3}, {258}, {1, 2}, {2, 1}, {2, 2}, {1, 258}, {258, 1}, {2, 1, 1}, {1, 1, 2}}
	seen := map[string]string{}
	for _, w := range vecs {
		enc := string(w.Canonical())
		if prev, dup := seen[enc]; dup {
			t.Errorf("weights %v and %s share a canonical encoding", w, prev)
		}
		seen[enc] = w.String()
	}
	if !bytes.HasPrefix(Weights{2}.Canonical(), []byte("smatch/weights/v1")) {
		t.Error("canonical encoding lost its domain prefix")
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, s := range []string{"", "unit"} {
		w, err := Parse(s)
		if err != nil || w != nil {
			t.Errorf("Parse(%q) = (%v, %v), want (nil, nil)", s, w, err)
		}
	}
	w, err := Parse("3, 1,2")
	if err != nil {
		t.Fatal(err)
	}
	if w.String() != "3,1,2" {
		t.Errorf("round trip: %q", w.String())
	}
	for _, bad := range []string{"3,x", "0,1", "1,-2", "1,,2", "1048577"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
	if (Weights)(nil).String() != "unit" {
		t.Errorf("nil String: %q", (Weights)(nil).String())
	}
}

func TestZipf(t *testing.T) {
	w := Zipf(10, 1.2, 16, 7)
	if len(w) != 10 {
		t.Fatalf("Zipf length %d", len(w))
	}
	if err := w.CheckBounds(); err != nil {
		t.Fatal(err)
	}
	if w.Max() != 16 {
		t.Errorf("Zipf max %d, want the rank-1 weight 16", w.Max())
	}
	if w.IsUnit() {
		t.Error("Zipf generated a unit vector at maxW 16")
	}
	if got := Zipf(10, 1.2, 16, 7); got.String() != w.String() {
		t.Errorf("Zipf not deterministic: %s vs %s", got, w)
	}
	if got := Zipf(10, 1.2, 16, 8); got.String() == w.String() {
		t.Error("Zipf ignores the seed")
	}
	ones := 0
	for _, wi := range w {
		if wi == 1 {
			ones++
		}
	}
	if ones < 3 {
		t.Errorf("Zipf(s=1.2) long tail has only %d unit weights", ones)
	}
	// Degenerate parameters clamp instead of panicking.
	if Zipf(0, 1.2, 16, 7) != nil {
		t.Error("Zipf(0 attrs) != nil")
	}
	if w := Zipf(3, -1, 1<<30, 7); w.CheckBounds() != nil {
		t.Errorf("clamped Zipf out of bounds: %v", w)
	}
}

func TestProfileScore(t *testing.T) {
	schema := testSchema(3)
	unit, err := NewProfile(schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	mapped := []*big.Int{big.NewInt(10), big.NewInt(20), big.NewInt(30)}
	out, err := unit.Score(mapped)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &mapped[0] {
		t.Error("unit Score did not return the input slice itself")
	}
	if unit.KeyBinding() != nil || !unit.IsUnit() {
		t.Error("unit profile carries scaling state")
	}

	weighted, err := NewProfile(schema, Weights{3, 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	out, err = weighted.Score(mapped)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{30, 20, 150}
	for i, o := range out {
		if o.Int64() != want[i] {
			t.Errorf("scored[%d] = %v, want %d", i, o, want[i])
		}
	}
	// Inputs must not be mutated and outputs must be fresh.
	if mapped[0].Int64() != 10 {
		t.Error("Score mutated its input")
	}
	if out[1] == mapped[1] {
		t.Error("weighted Score aliased an input big.Int")
	}
	if weighted.IsUnit() {
		t.Error("weighted profile reports unit")
	}
	if !bytes.Equal(weighted.KeyBinding(), Weights{3, 1, 5}.Canonical()) {
		t.Error("KeyBinding != canonical encoding")
	}

	if _, err := weighted.Score(mapped[:2]); err == nil {
		t.Error("short mapped vector accepted")
	}
	if _, err := weighted.Score([]*big.Int{big.NewInt(1), nil, big.NewInt(1)}); err == nil {
		t.Error("nil mapped value accepted")
	}
	if _, err := weighted.Score([]*big.Int{big.NewInt(1), big.NewInt(-1), big.NewInt(1)}); err == nil {
		t.Error("negative mapped value accepted")
	}
}

func TestNewProfileValidation(t *testing.T) {
	schema := testSchema(2)
	if _, err := NewProfile(schema, Weights{1, 2, 3}); err == nil {
		t.Error("wrong-width weights accepted")
	}
	if _, err := NewProfile(schema, Weights{0, 1}); err == nil {
		t.Error("zero weight accepted")
	}
	p, err := NewProfile(schema, Weights{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsUnit() {
		t.Error("all-ones did not normalize to the unit profile")
	}
}

func TestErrorMessagesMentionRemedy(t *testing.T) {
	// The zero-weight error must tell the user the supported alternative.
	err := (Weights{0}).CheckBounds()
	if err == nil || !strings.Contains(err.Error(), "drop the attribute") {
		t.Errorf("zero-weight error lacks remedy: %v", err)
	}
}
