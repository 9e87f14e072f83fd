package verify

import (
	"crypto/rand"
	"errors"
	"math/big"
	"sync"
	"testing"

	"smatch/internal/group"
	"smatch/internal/profile"
)

// The suite runs on a small generated group for speed; one test checks the
// default group path.
var (
	verifierOnce sync.Once
	verifierVal  *Verifier
)

func testVerifier(t testing.TB) *Verifier {
	t.Helper()
	verifierOnce.Do(func() {
		grp, err := group.Generate(256, nil)
		if err != nil {
			panic(err)
		}
		verifierVal, err = New(grp)
		if err != nil {
			panic(err)
		}
	})
	return verifierVal
}

var (
	keyAlice = []byte("profile-key-alice-0123456789abcd")
	keyOther = []byte("profile-key-other-0123456789abcd")
)

func TestAuthVerifyRoundTrip(t *testing.T) {
	v := testVerifier(t)
	ciph, err := v.Auth(keyAlice, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := v.Verify(keyAlice, 42, ciph)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("honest auth info failed verification")
	}
}

func TestVerifyFailsWithDifferentProfileKey(t *testing.T) {
	// An honest-but-curious user with a different profile key must not be
	// able to verify (or learn anything from) the auth info.
	v := testVerifier(t)
	ciph, err := v.Auth(keyAlice, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := v.Verify(keyOther, 42, ciph)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("auth info verified under the wrong profile key")
	}
}

func TestVerifyFailsWithWrongID(t *testing.T) {
	// A malicious server returning user A's auth blob under user B's ID
	// must be caught: the tag binds the ID.
	v := testVerifier(t)
	ciph, err := v.Auth(keyAlice, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := v.Verify(keyAlice, 43, ciph)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("auth info verified under a different user ID")
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	v := testVerifier(t)
	ciph, err := v.Auth(keyAlice, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{0, ivLen + 3, len(ciph) - 1} {
		tampered := append([]byte(nil), ciph...)
		tampered[pos] ^= 0x01
		ok, err := v.Verify(keyAlice, 7, tampered)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Errorf("bit flip at %d went undetected", pos)
		}
	}
}

func TestVerifyMalformedLength(t *testing.T) {
	v := testVerifier(t)
	if _, err := v.Verify(keyAlice, 1, []byte{1, 2, 3}); !errors.Is(err, ErrMalformed) {
		t.Errorf("short blob: err = %v, want ErrMalformed", err)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	v := testVerifier(t)
	if _, err := v.Auth(nil, 1, nil); err == nil {
		t.Error("Auth accepted empty key")
	}
	if _, err := v.Verify(nil, 1, make([]byte, v.AuthLen())); err == nil {
		t.Error("Verify accepted empty key")
	}
}

// TestAuthFromRejectsBadInput: AuthFrom has Auth's guards and refuses
// the zero Commitment, which holds no t1.
func TestAuthFromRejectsBadInput(t *testing.T) {
	v := testVerifier(t)
	c, err := v.Commit(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		key  []byte
		id   profile.ID
		c    Commitment
	}{
		{"zero commitment", keyAlice, 1, Commitment{}},
		{"empty key", nil, 1, c},
		{"ID 0", keyAlice, 0, c},
	} {
		if _, err := v.AuthFrom(tc.key, tc.id, tc.c, nil); err == nil {
			t.Errorf("AuthFrom accepted %s", tc.name)
		}
	}
}

// TestAuthFromCommitVerifies: a commitment made ahead of time seals into a
// blob that Verify accepts, as Auth's does.
func TestAuthFromCommitVerifies(t *testing.T) {
	v := testVerifier(t)
	c, err := v.Commit(nil)
	if err != nil {
		t.Fatal(err)
	}
	ciph, err := v.AuthFrom(keyAlice, 42, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ciph) != v.AuthLen() {
		t.Errorf("AuthFrom produced %d bytes, want %d", len(ciph), v.AuthLen())
	}
	if ok, err := v.Verify(keyAlice, 42, ciph); err != nil || !ok {
		t.Errorf("Verify = %v, %v", ok, err)
	}
}

func TestAuthIsRandomized(t *testing.T) {
	// Fresh s_u and IV every time: two auth blobs for the same user must
	// differ (otherwise the server could correlate re-uploads).
	v := testVerifier(t)
	a, _ := v.Auth(keyAlice, 9, nil)
	b, _ := v.Auth(keyAlice, 9, nil)
	if string(a) == string(b) {
		t.Error("two Auth calls produced identical blobs")
	}
	// Both verify.
	for _, blob := range [][]byte{a, b} {
		ok, err := v.Verify(keyAlice, 9, blob)
		if err != nil || !ok {
			t.Error("randomized auth blob failed verification")
		}
	}
}

func TestAuthLenMatchesOutput(t *testing.T) {
	v := testVerifier(t)
	ciph, _ := v.Auth(keyAlice, 1, nil)
	if len(ciph) != v.AuthLen() {
		t.Errorf("AuthLen() = %d but Auth produced %d bytes", v.AuthLen(), len(ciph))
	}
}

func TestCrossUserScenarioFromPaper(t *testing.T) {
	// The paper's Section VI example: users B and C share profile key
	// kp1, user A has kp2. B verifies C's auth info but not A's.
	v := testVerifier(t)
	kp1 := []byte("shared-profile-key-B-and-C-00000")
	kp2 := []byte("different-profile-key-A-00000000")
	ciphC, err := v.Auth(kp1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	ciphA, err := v.Auth(kp2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := v.Verify(kp1, 3, ciphC); !ok {
		t.Error("B cannot verify C (same key)")
	}
	if ok, _ := v.Verify(kp1, 1, ciphA); ok {
		t.Error("B verified A despite different keys")
	}
}

func TestNilGroupUsesDefault(t *testing.T) {
	v, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Group().P.BitLen() != 2048 {
		t.Errorf("default group is %d bits, want 2048", v.Group().P.BitLen())
	}
}

func TestVerifierRejectsBadGroup(t *testing.T) {
	bad := &group.Group{}
	if _, err := New(bad); err == nil {
		t.Error("invalid group accepted")
	}
}

// TestAuthFirstUseConcurrent: a group builds its Pow table on the first
// Auth. Many goroutines reach a fresh group at once; run under -race.
func TestAuthFirstUseConcurrent(t *testing.T) {
	base := testVerifier(t).grp
	v, err := New(&group.Group{P: base.P, Q: base.Q, G: base.G})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 1; i <= 32; i++ {
		wg.Add(1)
		go func(id profile.ID) {
			defer wg.Done()
			ciph, err := v.Auth(keyAlice, id, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if ok, err := v.Verify(keyAlice, id, ciph); err != nil || !ok {
				t.Errorf("ID %d: ok=%v err=%v", id, ok, err)
			}
		}(profile.ID(i))
	}
	wg.Wait()
}

func TestManyIDs(t *testing.T) {
	v := testVerifier(t)
	for _, id := range []profile.ID{1, 2, 255, 65535, 1 << 31} {
		ciph, err := v.Auth(keyAlice, id, nil)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := v.Verify(keyAlice, id, ciph)
		if err != nil || !ok {
			t.Errorf("round trip failed for ID %d", id)
		}
	}
}

// forge seals t1 with its matching tag under key, as a party holding the
// profile key could.
func forge(t *testing.T, v *Verifier, key []byte, t1 *big.Int, id profile.ID) []byte {
	t.Helper()
	t2 := v.tag(t1, id)
	payload := append(v.grp.EncodeElement(t1), t2[:]...)
	ciph, err := v.seal(key, payload, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return ciph
}

func TestZeroIDRejected(t *testing.T) {
	v := testVerifier(t)
	if _, err := v.Auth(keyAlice, 0, nil); err == nil {
		t.Error("Auth accepted ID 0")
	}
	// For ID 0 the tag is H(t1^0) = H(1) whatever the commitment: anyone
	// with the profile key can make a blob that "verifies".
	ciph := forge(t, v, keyAlice, v.grp.Pow(big.NewInt(7)), 0)
	ok, err := v.Verify(keyAlice, 0, ciph)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("blob verified for ID 0")
	}
}

// TestVerifyRejectsNonSubgroupCommitment: a blob sealed under the right
// key whose tag matches its commitment must still fail when the commitment
// is outside the order-Q subgroup. P-1 has order 2, so its tag takes only
// two values over all IDs.
func TestVerifyRejectsNonSubgroupCommitment(t *testing.T) {
	def, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []*Verifier{testVerifier(t), def} {
		grp := v.grp
		nonResidue := big.NewInt(2)
		for new(big.Int).Exp(nonResidue, grp.Q, grp.P).Cmp(big.NewInt(1)) == 0 {
			nonResidue.Add(nonResidue, big.NewInt(1))
		}
		bad := map[string]*big.Int{
			"P-1":         new(big.Int).Sub(grp.P, big.NewInt(1)),
			"non-residue": nonResidue,
			"zero":        new(big.Int),
		}
		for name, t1 := range bad {
			ok, err := v.Verify(keyAlice, 42, forge(t, v, keyAlice, t1, 42))
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				t.Errorf("%d-bit group: commitment %s verified", grp.P.BitLen(), name)
			}
		}
		// The same construction with a subgroup element does verify, so the
		// rejections above are the subgroup check and nothing else.
		ok, err := v.Verify(keyAlice, 42, forge(t, v, keyAlice, grp.Pow(big.NewInt(3)), 42))
		if err != nil || !ok {
			t.Errorf("%d-bit group: forged subgroup commitment: ok=%v err=%v", grp.P.BitLen(), ok, err)
		}
	}
}

func BenchmarkAuth(b *testing.B) {
	v := testVerifier(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Auth(keyAlice, 42, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAuth2048 is Auth as a device runs it, on the default group.
func BenchmarkAuth2048(b *testing.B) {
	v, err := New(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Auth(keyAlice, 42, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	v := testVerifier(b)
	ciph, _ := v.Auth(keyAlice, 42, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Verify(keyAlice, 42, ciph); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerify2048 is Vf as a device runs it on a find result: the
// default group and a 14-bit user ID.
func BenchmarkVerify2048(b *testing.B) {
	v, err := New(nil)
	if err != nil {
		b.Fatal(err)
	}
	const id = 9000
	ciph, err := v.Auth(keyAlice, id, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, err := v.Verify(keyAlice, id, ciph); err != nil || !ok {
			b.Fatalf("Verify = %v, %v", ok, err)
		}
	}
}
