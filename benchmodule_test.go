package smatch

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleBuilds is the contract between this module and bench/:
// bench/ is its own module (smatch/bench, replace => ../), so the root
// ./... patterns never compile it, and a rename of something it imports
// would otherwise surface only when the end-to-end benchmark runs. No
// network is needed: the module's only requirement is the replace.
func TestBenchModuleBuilds(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH: cannot vet the bench module")
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOFLAGS=", "GOTOOLCHAIN=local", "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
