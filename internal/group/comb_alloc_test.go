//go:build !race

// Allocation ceilings for Pow and its table. Excluded under -race, where
// math/big's scratch pool does not hold on to what it is given.
package group

import "testing"

// TestPowAllocs: Exp(G, s) cost 21 allocations at 2048 bits when Pow was
// built on it.
func TestPowAllocs(t *testing.T) {
	g := Default2048()
	s, err := g.RandScalar(nil)
	if err != nil {
		t.Fatal(err)
	}
	g.Pow(s) // build the table
	if allocs := testing.AllocsPerRun(20, func() { g.Pow(s) }); allocs > 8 {
		t.Errorf("Pow allocates %.0f times per call, want <= 8", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { g.RandScalar(nil) }); allocs > 6 {
		t.Errorf("RandScalar allocates %.0f times per call, want <= 6", allocs)
	}
}

// TestCombBuildAllocs: the table is built inside a device's first
// registration, so what it allocates is that operation's to pay.
func TestCombBuildAllocs(t *testing.T) {
	g := Default2048()
	if allocs := testing.AllocsPerRun(1, func() { newComb(g) }); allocs >= 1000 {
		t.Errorf("building the table allocates %.0f objects, want < 1000", allocs)
	}
}
