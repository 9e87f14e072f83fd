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
// TestVfRoundTripOddWidth covers the encoding at other group sizes.
func TestAuthGolden(t *testing.T) {
	groups := map[string]*group.Group{"2048": group.Default2048()}
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

// TestVfRoundTripOddWidth: at 130 bits an element takes 17 bytes, the top
// one holding two bits and often zero, so Auth's fixed-width encoding pads
// and Vf decodes it at a width other than the built-in group's. Every blob
// is AuthLen bytes long and verifies.
func TestVfRoundTripOddWidth(t *testing.T) {
	grp, err := group.Generate(130, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := New(grp)
	if err != nil {
		t.Fatal(err)
	}
	if grp.ElementLen() != 17 {
		t.Fatalf("130-bit element is %d bytes, want 17", grp.ElementLen())
	}
	for id := profile.ID(1); id <= 64; id++ {
		ciph, err := v.Auth(keyAlice, id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ciph) != v.AuthLen() {
			t.Fatalf("ID %d: blob is %d bytes, AuthLen says %d", id, len(ciph), v.AuthLen())
		}
		ok, err := v.Verify(keyAlice, id, ciph)
		if err != nil || !ok {
			t.Fatalf("ID %d: honest blob failed Vf at 130 bits (ok=%v, err=%v)", id, ok, err)
		}
		if ok, _ := v.Verify(keyAlice, id+1, ciph); ok {
			t.Fatalf("ID %d: blob verified under ID %d", id, id+1)
		}
	}
}
