package core

import (
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"math/big"
	"testing"

	"smatch/internal/keygen"
	"smatch/internal/oprf"
	"smatch/internal/profile"
)

// countingEval is an OPRF transport that counts the evaluations it is
// asked for, and refuses them while fail is set.
type countingEval struct {
	srv  *oprf.Server
	n    int
	fail bool
}

func (e *countingEval) Evaluate(x *big.Int) (*big.Int, error) {
	e.n++
	if e.fail {
		return nil, errors.New("evaluator down")
	}
	return e.srv.Evaluate(x)
}

// TestKeygenMemo pins how many OPRF evaluations each Keygen costs: one
// when the fuzzy vector, the user ID or the OPRF key is new to the client,
// none when the profile stays in its cell. Every key, memoised or not, is
// byte-equal to the key a fresh client derives.
func TestKeygenMemo(t *testing.T) {
	sys := testSystem(t, Params{PlaintextBits: 64})
	srv, _ := fixtures(t)
	ev := &countingEval{srv: srv}
	c, err := sys.NewClient(ev, []byte("memo"))
	if err != nil {
		t.Fatal(err)
	}
	fresh := func(p profile.Profile) *keygen.Key {
		t.Helper()
		key, err := testClient(t, sys, "memo-fresh").Keygen(p)
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	// check runs c.Keygen(p) and checks its evaluation count and key.
	check := func(what string, p profile.Profile, evals int) *keygen.Key {
		t.Helper()
		ev.n = 0
		key, err := c.Keygen(p)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if ev.n != evals {
			t.Errorf("%s: %d OPRF evaluations, want %d", what, ev.n, evals)
		}
		if !key.Equal(fresh(p)) {
			t.Errorf("%s: key differs from a fresh client's", what)
		}
		return key
	}

	// Cells are 2θ+1 = 17 values wide: 30 and 31 share cell 1, 34 is in
	// cell 2.
	p := profile.Profile{ID: 1, Attrs: []int{1, 2, 30, 40}}
	drift := profile.Profile{ID: 1, Attrs: []int{1, 2, 31, 40}}
	moved := profile.Profile{ID: 1, Attrs: []int{1, 2, 34, 40}}

	first := check("first Keygen", p, 1)
	if again := check("same profile", p, 0); again != first {
		t.Error("same profile: not the kept key")
	}
	check("one-step drift in the cell", drift, 0)
	if check("drift across a cell boundary", moved, 1).Equal(first) {
		t.Fatal("the cross-boundary drift kept its key: pick a profile whose cell moves")
	}
	check("same profile under a new ID", profile.Profile{ID: 2, Attrs: p.Attrs}, 1)

	// A failed miss keeps the entry it would have replaced.
	ev.fail, ev.n = true, 0
	if _, err := c.Keygen(p); err == nil || ev.n != 1 {
		t.Fatalf("Keygen with the evaluator down: err = %v after %d evaluations", err, ev.n)
	}
	ev.fail = false
	check("after a failed miss, the kept cell", moved, 0)
	check("after a failed miss, the new cell", p, 1)

	// Another OPRF key is another System, so another Client.
	rk, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := oprf.NewServerFromKey(rk)
	if err != nil {
		t.Fatal(err)
	}
	_, grp := fixtures(t)
	sys2, err := NewSystem(testSchema(), testDist(), Params{PlaintextBits: 64}, srv2.PublicKey(), grp)
	if err != nil {
		t.Fatal(err)
	}
	ev2 := &countingEval{srv: srv2}
	c2, err := sys2.NewClient(ev2, []byte("memo"))
	if err != nil {
		t.Fatal(err)
	}
	key2, err := c2.Keygen(p)
	if err != nil {
		t.Fatal(err)
	}
	if ev2.n != 1 {
		t.Errorf("new OPRF key: %d OPRF evaluations, want 1", ev2.n)
	}
	if key2.Equal(first) {
		t.Error("new OPRF key: same key as under the old one")
	}
}
