package verify

import (
	"bufio"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"smatch/internal/group"
	"smatch/internal/prf"
	"smatch/internal/profile"
)

// TestAuthGolden pins Auth's output under a fixed rng stream (prf's
// HMAC-SHA256 counter mode), byte for byte. testdata/auth_golden.txt was recorded with Pow as a plain
// big.Int.Exp, before the fixed-base comb replaced it; it is never
// regenerated, because an Auth that draws from rng differently or encodes
// differently changes what is on the wire, in the WAL and in snapshots.
func TestAuthGolden(t *testing.T) {
	groups := map[string]*group.Group{
		"1536": group.Default1536(), "2048": group.Default2048(), "3072": group.Default3072(),
	}
	f, err := os.Open("testdata/auth_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, want, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		grp := groups[name]
		if grp == nil {
			t.Fatalf("golden vector for unknown group %q", name)
		}
		seen++
		v, err := New(grp)
		if err != nil {
			t.Fatal(err)
		}
		// Two blobs from one stream: the second also pins how much of the
		// stream the first consumed.
		rng := prf.New([]byte("smatch/verify/golden"), []byte("rng"))
		var got []byte
		for _, id := range []profile.ID{42, 1 << 31} {
			ciph, err := v.Auth(keyAlice, id, rng)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, ciph...)
		}
		if hex.EncodeToString(got) != want {
			t.Errorf("%s-bit group: Auth output changed\n got %x\nwant %s", name, got, want)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if seen != len(groups) {
		t.Errorf("%d golden vectors for %d built-in groups", seen, len(groups))
	}
}
