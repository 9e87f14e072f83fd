package match

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"smatch/internal/chain"
	"smatch/internal/profile"
)

// The ordered index's cost claim, as counts instead of timings: in one
// bucket of 10^5 entries a seek visits O(log n) nodes, on single-limb and
// multi-limb order sums alike. A skiplist whose towers have collapsed
// still answers correctly but walks level 0, so only a structural count
// catches it.
const (
	pathLenEntries = 100_000
	pathLenSpread  = 64   // order-sum spacing between neighbouring entries
	pathLenKeys    = 1000 // seeded seek keys per bucket
	// pathLenMaxVisits bounds the nodes one seek may examine. A healthy
	// p=1/4 skiplist over 10^5 entries visits about 30 on average and
	// about 70 at most; a flat one visits up to 10^5.
	pathLenMaxVisits = 200
)

// weightScale lifts order sums past 2^64, the shape a MaxWeight-priority
// deployment produces: most sums span two limbs, so most compares on the
// seek path take the multi-limb case.
var weightScale = new(big.Int).SetUint64(1<<44 | 1)

func TestSeekPathLength(t *testing.T) {
	for _, tc := range []struct {
		name  string
		scale *big.Int
		limbs int
	}{
		{"single-limb", big.NewInt(1), 1},
		{"multi-limb", weightScale, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Fixed tower-height seeds for whatever indexes this test builds,
			// so the structure it measures is the same on every run.
			ordSeed.Store(0)
			keyHash := []byte("path-length-bucket")
			s := NewServer()
			// Descending order makes every insert land at the front, so the
			// build stays O(n) even on a degraded index and the seek count,
			// not a timeout, is what fails.
			for i := pathLenEntries; i >= 1; i-- {
				sum := new(big.Int).Mul(big.NewInt(int64(i)*pathLenSpread), tc.scale)
				e := Entry{
					ID:      profile.ID(i),
					KeyHash: keyHash,
					Chain:   &chain.Chain{Cts: []*big.Int{sum}, CtBits: 48 + uint(tc.scale.BitLen())},
					Auth:    []byte("auth"),
				}
				if err := s.Upload(e); err != nil {
					t.Fatal(err)
				}
			}
			ix := s.buckets[string(keyHash)]
			if ix == nil || ix.length != pathLenEntries {
				t.Fatal("bucket index missing or short")
			}
			wide := 0
			for n := ix.head.next[0]; n != nil; n = n.next[0] {
				if len(n.rec.sumLimbs) == tc.limbs {
					wide++
				}
			}
			if wide < pathLenEntries*4/5 {
				t.Fatalf("only %d of %d order sums span %d limbs", wide, pathLenEntries, tc.limbs)
			}

			log4n := math.Log(pathLenEntries) / math.Log(4)
			if ix.height > ordMaxHeight || float64(ix.height) < log4n-2 || float64(ix.height) > log4n+6 {
				t.Errorf("tower height %d, want within [log4(n)-2, log4(n)+6] = [%.1f, %.1f] and <= %d",
					ix.height, log4n-2, log4n+6, ordMaxHeight)
			}

			rng := rand.New(rand.NewSource(31))
			maxVisits, total := 0, 0
			for k := 0; k < pathLenKeys; k++ {
				sum := new(big.Int).Mul(big.NewInt(rng.Int63n(pathLenEntries*pathLenSpread)), tc.scale)
				key, id := limbsFromBig(sum), profile.ID(1+rng.Intn(pathLenEntries))
				visits, ge, pred := seekPath(ix, key, id)
				if wantGE, wantPred := ix.seek(key, id); ge != wantGE || pred != wantPred {
					t.Fatalf("key %d: walked path ends elsewhere than seek", k)
				}
				total += visits
				if visits > maxVisits {
					maxVisits = visits
				}
			}
			t.Logf("height %d (log4 n = %.1f), seek visits: max %d, mean %.1f",
				ix.height, log4n, maxVisits, float64(total)/pathLenKeys)
			if maxVisits >= pathLenMaxVisits {
				t.Errorf("a seek visited %d nodes, want < %d: the index has degraded towards a scan",
					maxVisits, pathLenMaxVisits)
			}
		})
	}
}

// seekPath walks seek's search path over the index's real links and
// counts the nodes it examines: every forward link followed or compared
// against, at every level.
func seekPath(ix *ordIndex, sum ordSum, id profile.ID) (visits int, ge, pred *ordNode) {
	n := ix.head
	for lvl := ix.height - 1; lvl >= 0; lvl-- {
		for n.next[lvl] != nil {
			visits++
			if !nodeBefore(n.next[lvl], sum, id) {
				break
			}
			n = n.next[lvl]
		}
	}
	return visits, n.next[0], n
}
