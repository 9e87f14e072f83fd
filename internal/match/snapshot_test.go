package match

import (
	"bytes"
	"math/big"
	"testing"

	"smatch/internal/chain"
	"smatch/internal/profile"
)

func populatedServer(t *testing.T) *Server {
	t.Helper()
	s := NewServer()
	for i := 1; i <= 20; i++ {
		bucket := "bucket-a"
		if i%3 == 0 {
			bucket = "bucket-b"
		}
		must(t, s.Upload(entry(profile.ID(i), bucket, int64(i*13))))
	}
	return s
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	orig := populatedServer(t)
	var buf bytes.Buffer
	if err := orig.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := bytes.Clone(buf.Bytes())
	got, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot output is byte-identical for equal stores (ascending ID).
	var again bytes.Buffer
	if err := got.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, again.Bytes()) {
		t.Fatal("re-snapshot after Restore differs from the original snapshot")
	}
	if got.NumUsers() != orig.NumUsers() {
		t.Fatalf("restored %d users, want %d", got.NumUsers(), orig.NumUsers())
	}
	if got.NumBuckets() != orig.NumBuckets() {
		t.Fatalf("restored %d buckets, want %d", got.NumBuckets(), orig.NumBuckets())
	}
	// Queries produce identical results.
	for _, id := range []profile.ID{1, 7, 20} {
		want, err := orig.Match(id, 5)
		if err != nil {
			t.Fatal(err)
		}
		have, err := got.Match(id, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(have) {
			t.Fatalf("id %d: %d results vs %d", id, len(have), len(want))
		}
		for i := range want {
			if want[i].ID != have[i].ID || !bytes.Equal(want[i].Auth, have[i].Auth) {
				t.Fatalf("id %d: result %d differs", id, i)
			}
		}
	}
}

func TestSnapshotEmptyServer(t *testing.T) {
	var buf bytes.Buffer
	if err := NewServer().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumUsers() != 0 {
		t.Errorf("restored empty server has %d users", got.NumUsers())
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    []byte("NOTSMATCHxxxxxxx"),
		"short header": append([]byte{}, snapshotMagic[:4]...),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Restore(bytes.NewReader(data)); err == nil {
				t.Error("garbage snapshot accepted")
			}
		})
	}
}

func TestRestoreRejectsTruncation(t *testing.T) {
	orig := populatedServer(t)
	var buf bytes.Buffer
	if err := orig.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) - 1, len(full) / 2, 13} {
		if _, err := Restore(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("snapshot truncated at %d accepted", cut)
		}
	}
}

func TestRestoreRejectsTrailingBytes(t *testing.T) {
	orig := populatedServer(t)
	var buf bytes.Buffer
	if err := orig.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := append(buf.Bytes(), 0x00)
	if _, err := Restore(bytes.NewReader(data)); err == nil {
		t.Error("snapshot with trailing bytes accepted")
	}
}

// TestRestoreRejectsOutOfRangeCiphertext sets the excess top bits of a
// 44-bit ciphertext in a snapshot; Restore builds records from the bytes
// and must apply chain.Parse's range rule itself.
func TestRestoreRejectsOutOfRangeCiphertext(t *testing.T) {
	orig := NewServer()
	must(t, orig.Upload(Entry{ID: 1, KeyHash: []byte("b"),
		Chain: &chain.Chain{Cts: []*big.Int{big.NewInt(10)}, CtBits: 44}}))
	var buf bytes.Buffer
	if err := orig.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The chain follows magic(8)+count(4)+id(4)+key(4+1)+ctBits(4)+
	// attrs(2)+chain length(4).
	data[31] = 0x10
	if _, err := Restore(bytes.NewReader(data)); err == nil {
		t.Error("ciphertext wider than its ctBits accepted")
	}
	data[31] = 0x0F
	if _, err := Restore(bytes.NewReader(data)); err != nil {
		t.Errorf("full-width ciphertext rejected: %v", err)
	}
}

func TestRestoreRejectsLyingFieldLength(t *testing.T) {
	// Corrupt a length prefix to claim a huge field.
	orig := NewServer()
	must(t, orig.Upload(entry(1, "b", 10)))
	var buf bytes.Buffer
	if err := orig.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The key-hash length prefix sits after magic(8)+count(4)+id(4).
	data[16] = 0xff
	data[17] = 0xff
	if _, err := Restore(bytes.NewReader(data)); err == nil {
		t.Error("lying field length accepted")
	}
}
