package prf

import (
	"bufio"
	"fmt"
	"os"
	"testing"
)

// Key and label lengths the golden file covers: empty, short, one SHA-256
// block and one byte past it (the hash-the-key-first rule), a key longer
// than two blocks; labels up to the inline limit and one byte past it.
var (
	goldenKeyLens   = []int{0, 1, 32, 64, 65, 131}
	goldenLabelLens = []int{0, 4, 12, maxInlineLabel, maxInlineLabel + 1}
)

// streamGoldenLine is one line of testdata/stream_golden.txt: the key and
// label lengths, the first 200 stream bytes and the Derive output, in hex.
func streamGoldenLine(keyLen, labelLen int) string {
	key := make([]byte, keyLen)
	for i := range key {
		key[i] = byte(7 + 31*i)
	}
	label := make([]byte, labelLen)
	for i := range label {
		label[i] = byte('a' + i%26)
	}
	stream := make([]byte, 200)
	New(key, label).Read(stream)
	derived := Derive(key, label)
	return fmt.Sprintf("%d %d %x %x", keyLen, labelLen, stream, derived[:])
}

// TestStreamGolden pins the stream and Derive bytes. testdata/stream_golden.txt
// was recorded with crypto/hmac behind both, before the stack kernel
// replaced it; it is never regenerated, because the OPE coins, InitData's
// mapped values and the verify keys all come from these bytes.
func TestStreamGolden(t *testing.T) {
	f, err := os.Open("testdata/stream_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]bool)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		want[sc.Text()] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(goldenKeyLens)*len(goldenLabelLens) {
		t.Fatalf("%d golden lines, want %d", len(want), len(goldenKeyLens)*len(goldenLabelLens))
	}
	for _, kl := range goldenKeyLens {
		for _, ll := range goldenLabelLens {
			if got := streamGoldenLine(kl, ll); !want[got] {
				t.Errorf("key %d B, label %d B: stream or Derive changed\n got %s", kl, ll, got)
			}
		}
	}
}
