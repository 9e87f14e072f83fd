package match

import (
	"hash/fnv"
	"testing"
)

// TestPartitionHashPinnedValues pins the hash to concrete outputs. These
// values are a wire-format-grade contract: every node and router in a
// cluster derives bucket ownership from them, so a change here is a
// breaking change for any running cluster (its stored buckets would sit
// on nodes that no longer own them). If this test fails, the fix is to
// revert the hash, not to update the constants.
func TestPartitionHashPinnedValues(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
	}{
		{"", 0xcbf29ce484222325}, // FNV-1a offset basis
		{"a", 0xaf63dc4c8601ec8c},
		{"smatch", 0xe71e3c332c304003},
		{"h(Kup)", 0xa2bc7b436a77f372},
		{"\x00\x01\x02\x03", 0x4475327f98e05411},
	}
	for _, c := range cases {
		if got := PartitionHash([]byte(c.in)); got != c.want {
			t.Errorf("PartitionHash(%q) = %#016x, want %#016x", c.in, got, c.want)
		}
	}
}

// TestPartitionHashMatchesFNV cross-checks the inlined implementation
// against the standard library's FNV-1a over adversarially boring inputs
// (every byte value, varying lengths).
func TestPartitionHashMatchesFNV(t *testing.T) {
	buf := make([]byte, 0, 300)
	for i := 0; i < 300; i++ {
		buf = append(buf, byte(i*7))
		h := fnv.New64a()
		h.Write(buf)
		if got, want := PartitionHash(buf), h.Sum64(); got != want {
			t.Fatalf("len %d: PartitionHash = %#x, hash/fnv = %#x", len(buf), got, want)
		}
	}
}

// TestPartitionHashStableAcrossStores is the property that motivated the
// function: the hash has no per-process state, so every process computes
// the same partition for the same bucket key.
func TestPartitionHashStableAcrossStores(t *testing.T) {
	key := []byte("some-oprf-derived-bucket-key")
	a, b := PartitionHash(key), PartitionHash(key)
	if a != b {
		t.Fatalf("PartitionHash not deterministic: %#x vs %#x", a, b)
	}
}
