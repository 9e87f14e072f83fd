package ope

import (
	"bufio"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// goldenFile pins ciphertexts byte for byte. It was recorded once and is
// never regenerated: a change to the descent, the coin derivation or the
// sampler that moves any ciphertext must re-record it as a declared change.
const goldenFile = "testdata/encrypt_golden.txt"

var (
	goldenKeys   = []string{"key-A", "key-B", "a much longer key with entropy 0123456789"}
	goldenParams = []Params{
		{PlaintextBits: 4, CiphertextBits: 4},
		{PlaintextBits: 16, CiphertextBits: 16},
		{PlaintextBits: 64, CiphertextBits: 64},
		{PlaintextBits: 8, CiphertextBits: 12},
		{PlaintextBits: 16, CiphertextBits: 32},
		{PlaintextBits: 64, CiphertextBits: 80},
		{PlaintextBits: 256, CiphertextBits: 272},
		{PlaintextBits: 1024, CiphertextBits: 1040},
	}
)

// goldenCase is one (key, params, plaintext) input of the golden file.
type goldenCase struct {
	key string
	p   Params
	m   *big.Int
}

// goldenCases lists the inputs in file order: for each parameter set and
// key, the plaintexts 0, 1 and 2^M-1 followed by eight draws from a source
// seeded by (M, N).
func goldenCases() []goldenCase {
	var cs []goldenCase
	for _, p := range goldenParams {
		rng := rand.New(rand.NewSource(int64(p.PlaintextBits)<<16 | int64(p.CiphertextBits)))
		limit := new(big.Int).Lsh(bigOne, p.PlaintextBits)
		for _, key := range goldenKeys {
			ms := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(limit, bigOne)}
			for i := 0; i < 8; i++ {
				ms = append(ms, new(big.Int).Rand(rng, limit))
			}
			for _, m := range ms {
				cs = append(cs, goldenCase{key, p, m})
			}
		}
	}
	return cs
}

// inputs formats the case's fields as they appear in the file, minus the
// ciphertext.
func (c goldenCase) inputs() string {
	return fmt.Sprintf("%q %d %d %s", c.key, c.p.PlaintextBits, c.p.CiphertextBits, c.m.Text(16))
}

// TestEncryptGolden checks Encrypt against the recorded ciphertexts and
// Decrypt back to the plaintext.
func TestEncryptGolden(t *testing.T) {
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<16)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	cases := goldenCases()
	if len(lines) != len(cases) {
		t.Fatalf("%s has %d entries, want %d", goldenFile, len(lines), len(cases))
	}
	schemes := map[string]*Scheme{}
	for i, c := range cases {
		in, wantHex, ok := strings.Cut(lines[i], " c=")
		if !ok || in != c.inputs() {
			t.Fatalf("entry %d is %q, want inputs %s", i, lines[i], c.inputs())
		}
		want, ok := new(big.Int).SetString(wantHex, 16)
		if !ok {
			t.Fatalf("entry %d: bad ciphertext %q", i, wantHex)
		}
		id := fmt.Sprintf("%q %d %d", c.key, c.p.PlaintextBits, c.p.CiphertextBits)
		s := schemes[id]
		if s == nil {
			s = mustScheme(t, c.key, c.p)
			schemes[id] = s
		}
		got, err := s.Encrypt(c.m)
		if err != nil {
			t.Fatalf("%s: Encrypt: %v", c.inputs(), err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("%s: Encrypt = %x, golden %x", c.inputs(), got, want)
		}
		back, err := s.Decrypt(got)
		if err != nil {
			t.Fatalf("%s: Decrypt: %v", c.inputs(), err)
		}
		if back.Cmp(c.m) != 0 {
			t.Fatalf("%s: Decrypt = %x", c.inputs(), back)
		}
	}
}
