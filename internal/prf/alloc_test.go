//go:build !race

// Allocation gate for the keyed hashing the device runs per operation.
// Excluded under -race, like the repository's other allocation gates.
package prf

import "testing"

// TestStreamAllocs: a 1 KiB Read crosses 32 refills, each an HMAC over a
// stack buffer, and allocates nothing; neither does a Derive.
// crypto/hmac.New cost about 8 objects per refill and per Derive.
func TestStreamAllocs(t *testing.T) {
	s := New(make([]byte, 32), []byte("map\x00\x00\x00\x00\x07\x00\x00\x00\x02"))
	buf := make([]byte, 1024)
	if allocs := testing.AllocsPerRun(100, func() { s.Read(buf) }); allocs != 0 {
		t.Errorf("1 KiB Read allocates %.0f times, want 0", allocs)
	}
	key, label := make([]byte, 32), []byte("verify/mac")
	if allocs := testing.AllocsPerRun(100, func() { Derive(key, label) }); allocs != 0 {
		t.Errorf("Derive allocates %.0f times, want 0", allocs)
	}
}
