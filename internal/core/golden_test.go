package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"smatch/internal/profile"
)

var (
	goldenSecrets  = []string{"device-a", "device-b", "a much longer device secret, past one SHA-256 block of 64 bytes"}
	goldenProfiles = []profile.Profile{
		{ID: 1, Attrs: []int{0, 0, 0, 0}},
		{ID: 7, Attrs: []int{1, 2, 30, 40}},
		{ID: 42, Attrs: []int{2, 5, 17, 9}},
		{ID: 4095, Attrs: []int{0, 3, 1, 62}},
		{ID: 1 << 20, Attrs: []int{3, 7, 63, 63}},
	}
)

// initDataGoldenLines maps every golden profile on every golden secret's
// device: one line per pair, the secret's index, the profile ID and the
// mapped values in hex.
func initDataGoldenLines(t *testing.T) []string {
	sys := testSystem(t, Params{PlaintextBits: 64})
	var lines []string
	for si, secret := range goldenSecrets {
		c := testClient(t, sys, secret)
		for _, p := range goldenProfiles {
			mapped, err := c.InitData(p)
			if err != nil {
				t.Fatal(err)
			}
			line := fmt.Sprintf("%d %d", si, p.ID)
			for _, m := range mapped {
				line += fmt.Sprintf(" %x", m)
			}
			lines = append(lines, line)
		}
	}
	return lines
}

// TestInitDataGolden pins InitData's mapped values for three device
// secrets and five profiles on the test schema at PlaintextBits 64.
// testdata/initdata_golden.txt was recorded with crypto/hmac behind the PRF
// stream; it is never regenerated, because the mapped values are what the
// chain orders and OPE encrypts, so a change here changes every upload.
func TestInitDataGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/initdata_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	got := initDataGoldenLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d mapped profiles, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("InitData changed\n got %s\nwant %s", got[i], want[i])
		}
	}
}
