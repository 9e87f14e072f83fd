package experiment

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"smatch/internal/chain"
	"smatch/internal/dataset"
	"smatch/internal/match"
	"smatch/internal/profile"
)

func TestAblationMultiProbeNonDecreasing(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline; skipped with -short")
	}
	ds := dataset.Infocom06()
	for _, theta := range []int{5, 10} {
		plain, err := MeasureTPRWithProbes(ds, theta, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		probed, err := MeasureTPRWithProbes(ds, theta, 5, 4)
		if err != nil {
			t.Fatal(err)
		}
		if probed < plain-1e-9 {
			t.Errorf("theta=%d: probing decreased TPR from %.3f to %.3f", theta, plain, probed)
		}
		t.Logf("theta=%d: TPR %.3f -> %.3f with 4 probes", theta, plain, probed)
	}
}

func TestAblationZeroProbesMatchesFig4b(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline; skipped with -short")
	}
	ds := dataset.Infocom06()
	a, err := MeasureTPR(ds, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureTPRWithProbes(ds, 8, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("probes=0 TPR %.4f differs from Fig 4(b) TPR %.4f", b, a)
	}
}

func TestAblationServerSortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline; skipped with -short")
	}
	tab, err := AblationServerSort(dataset.Infocom06())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("ablation table has %d rows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if cellFloatStr(t, row[1]) > 1.0 {
			t.Errorf("%s took %s ms — matching should be microseconds", row[0], row[1])
		}
	}
}

// TestLiteralMatchAgreesWithStore pins ablation A2's paper-literal path to
// the store's indexed kNN on tie-heavy single- and multi-limb order sums:
// same IDs, same order, including which side wins an equal-distance tie.
func TestLiteralMatchAgreesWithStore(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	store := match.NewServer()
	byHash := make(map[string][]match.Entry)
	for i := 1; i <= 120; i++ {
		base := int64(rng.Intn(24))
		ch := &chain.Chain{Cts: []*big.Int{big.NewInt(base)}, CtBits: 48}
		if i%2 == 0 {
			// Multi-limb: base·2^72 plus low-limb noise, so both limbs matter.
			sum := new(big.Int).Lsh(big.NewInt(base), 72)
			ch = &chain.Chain{Cts: []*big.Int{sum.Add(sum, big.NewInt(base%7))}, CtBits: 84}
		}
		e := match.Entry{ID: profile.ID(i), KeyHash: []byte(fmt.Sprintf("literal-%d", i%3)), Chain: ch, Auth: []byte{1}}
		if err := store.Upload(e); err != nil {
			t.Fatal(err)
		}
		byHash[string(e.KeyHash)] = append(byHash[string(e.KeyHash)], e)
	}
	for id := profile.ID(1); id <= 120; id++ {
		bucket := byHash[fmt.Sprintf("literal-%d", id%3)]
		for _, k := range []int{1, 4, 50} {
			want, err := store.Match(id, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := literalMatch(bucket, id, k)
			if err != nil {
				t.Fatal(err)
			}
			wantIDs := make([]profile.ID, len(want))
			for i, r := range want {
				wantIDs[i] = r.ID
			}
			if !slices.Equal(got, wantIDs) {
				t.Fatalf("literalMatch(%d, %d) = %v, Match = %v", id, k, got, wantIDs)
			}
		}
	}
}

func cellFloatStr(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmt.Sscan(s, &v); err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestAblationRSWithinNoiseOfPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline; skipped with -short")
	}
	tab, err := AblationRS(dataset.Infocom06(), []int{8})
	if err != nil {
		t.Fatal(err)
	}
	with := cellFloatStr(t, tab.Rows[0][1])
	without := cellFloatStr(t, tab.Rows[0][2])
	// The two pipelines must agree within a few points: the snap fires
	// rarely and must never devastate matching.
	if diff := with - without; diff < -0.1 || diff > 0.1 {
		t.Errorf("RS snap changes TPR by %.3f — expected within ±0.1", diff)
	}
}

func TestAccuracyComparisonSMatchAtLeastAsAccurate(t *testing.T) {
	if testing.Short() {
		t.Skip("two full pipelines; skipped with -short")
	}
	tab, err := AccuracyComparison(dataset.Infocom06(), 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	smatch := cellFloatStr(t, tab.Rows[0][1])
	homo := cellFloatStr(t, tab.Rows[1][1])
	if smatch < homo-0.05 {
		t.Errorf("S-MATCH TPR %.3f materially below homoPM %.3f", smatch, homo)
	}
	t.Logf("accuracy: S-MATCH %.3f vs homoPM %.3f", smatch, homo)
}
