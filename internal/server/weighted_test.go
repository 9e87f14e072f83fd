// Weighted-matching integration suite: the scoring layer must leave every
// server-side byte format untouched. Unit weights are pinned byte-identical
// across the store snapshot and the WAL segments; weighted entries (wider
// chains, multi-limb order sums) flow through upload/query/snapshot/push
// exactly like legacy ones — the server cannot tell the difference.
package server

import (
	"bytes"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"smatch/internal/client"
	"smatch/internal/core"
	"smatch/internal/match"
	"smatch/internal/profile"
	"smatch/internal/scoring"
	"smatch/internal/wal"
	"smatch/internal/wire"
)

func weightedTestSchema(d int) (profile.Schema, [][]float64) {
	schema := profile.Schema{Attrs: make([]profile.AttributeSpec, d)}
	dist := make([][]float64, d)
	for i := range schema.Attrs {
		schema.Attrs[i] = profile.AttributeSpec{Name: fmt.Sprintf("a%d", i), NumValues: 64}
		probs := make([]float64, 64)
		for j := range probs {
			probs[j] = 1.0 / 64
		}
		dist[i] = probs
	}
	return schema, dist
}

// weightedEntries runs the real client pipeline (keygen against the test
// OPRF, entropy mapping, scoring, chaining) for every profile, with
// deterministic per-ID auth bytes substituted for the randomized Auth blob
// so two runs are byte-comparable.
func weightedEntries(t *testing.T, w scoring.Weights, profiles []profile.Profile) []match.Entry {
	t.Helper()
	schema, dist := weightedTestSchema(len(profiles[0].Attrs))
	sys, err := core.NewSystem(schema, dist,
		core.Params{PlaintextBits: 64, Theta: 4, Weights: w}, testOPRF(t).PublicKey(), testGroup(t))
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]match.Entry, len(profiles))
	for i, p := range profiles {
		dev, err := sys.NewClient(testOPRF(t), []byte(fmt.Sprintf("wdev-%d", p.ID)))
		if err != nil {
			t.Fatal(err)
		}
		key, err := dev.Keygen(p)
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := dev.InitData(p)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := dev.Enc(key, p.ID, mapped)
		if err != nil {
			t.Fatal(err)
		}
		entries[i] = match.Entry{
			ID:      p.ID,
			KeyHash: key.Hash(),
			Chain:   ch,
			Auth:    []byte(fmt.Sprintf("fixed-auth-%d", p.ID)),
		}
	}
	return entries
}

// walBytes journals the entries into a fresh WAL and returns the
// concatenated segment files.
func walBytes(t *testing.T, dir string, entries []match.Entry) []byte {
	t.Helper()
	w, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j := NewJournal(w)
	for _, e := range entries {
		req := wire.UploadReqOf(e)
		if err := j.AppendUploadBatch([]*wire.UploadReq{&req}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var out []byte
	for _, n := range names {
		b, err := os.ReadFile(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b...)
	}
	if len(out) == 0 {
		t.Fatal("WAL wrote no bytes")
	}
	return out
}

func weightedSnapshotBytes(t *testing.T, entries []match.Entry) []byte {
	t.Helper()
	store := match.NewServer()
	for _, e := range entries {
		if err := store.Upload(e); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := store.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestUnitWeightsPersistenceByteIdentical pins the anchor property at the
// persistence layer: entries prepared under nil weights and under an
// explicit all-ones vector produce byte-identical wire records,
// byte-identical WAL segments and byte-identical store snapshots. An
// unweighted deployment can flip Params.Weights to all-ones (or back) with
// zero migration.
func TestUnitWeightsPersistenceByteIdentical(t *testing.T) {
	profiles := []profile.Profile{
		{ID: 1, Attrs: []int{9, 9, 9}},
		{ID: 2, Attrs: []int{9, 10, 11}},
		{ID: 3, Attrs: []int{40, 41, 42}},
	}
	legacy := weightedEntries(t, nil, profiles)
	unit := weightedEntries(t, scoring.Weights{1, 1, 1}, profiles)

	for i := range legacy {
		a, b := wire.UploadReqOf(legacy[i]), wire.UploadReqOf(unit[i])
		if !bytes.Equal(a.Encode(), b.Encode()) {
			t.Fatalf("user %d: all-ones upload record differs from legacy", legacy[i].ID)
		}
	}
	if !bytes.Equal(walBytes(t, t.TempDir(), legacy), walBytes(t, t.TempDir(), unit)) {
		t.Fatal("all-ones WAL segments differ from legacy")
	}
	if !bytes.Equal(weightedSnapshotBytes(t, legacy), weightedSnapshotBytes(t, unit)) {
		t.Fatal("all-ones store snapshot differs from legacy")
	}
}

// TestWeightedSnapshotWALRoundTrip: weighted entries (widened chains)
// survive the journal-replay recovery path and a snapshot/restore cycle
// with their ranking intact.
func TestWeightedSnapshotWALRoundTrip(t *testing.T) {
	// All three users share one key cell (theta 4 -> values 9..17). Users 2
	// and 3 differ from user 1 only on the weight-64 attribute, by 1 and by
	// 5: their weighted order-sum distances land in the disjoint bands
	// (0,137)·2^58 and (247,393)·2^58, so user 2 is deterministically
	// nearest despite entropy-mapping noise.
	w := scoring.Weights{64, 1, 8}
	profiles := []profile.Profile{
		{ID: 1, Attrs: []int{9, 9, 9}},
		{ID: 2, Attrs: []int{10, 9, 9}},
		{ID: 3, Attrs: []int{14, 9, 9}},
	}
	entries := weightedEntries(t, w, profiles)
	if entries[0].Chain.CtBits != 64+w.ExtraBits() {
		t.Fatalf("weighted CtBits = %d, want %d", entries[0].Chain.CtBits, 64+w.ExtraBits())
	}

	// Journal, then recover a store purely from the WAL.
	dir := t.TempDir()
	walBytes(t, dir, entries)
	_, recovered, wasRecovered, err := func() (j *Journal, s *match.Server, r bool, err error) {
		j, s, r, err = OpenJournal(wal.Options{Dir: dir})
		if j != nil {
			defer j.Close()
		}
		return
	}()
	if err != nil {
		t.Fatal(err)
	}
	if !wasRecovered {
		t.Fatal("journal reported nothing to recover")
	}

	// The recovered store answers weighted queries like a live one.
	results, err := recovered.Match(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].ID != 2 {
		t.Fatalf("recovered weighted nearest = %v, want user 2 (weight-64 attr dominates)", results)
	}

	// Snapshot of the recovered store round-trips byte-identically.
	var snap1 bytes.Buffer
	if err := recovered.Snapshot(&snap1); err != nil {
		t.Fatal(err)
	}
	restored, err := match.Restore(bytes.NewReader(snap1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var snap2 bytes.Buffer
	if err := restored.Snapshot(&snap2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap1.Bytes(), snap2.Bytes()) {
		t.Fatal("weighted snapshot did not round-trip byte-identically")
	}
}

// TestWeightedPullPushEquivalence: with weighted entries (multi-limb order
// sums) and no drops, replaying the push stream converges to exactly the
// set a fresh MAX-distance pull returns for the same probe and threshold —
// the pull≡push contract is weight-oblivious.
func TestWeightedPullPushEquivalence(t *testing.T) {
	addr, _ := startServer(t)
	subscriber := dial(t, addr)
	uploader := dial(t, addr)

	w := scoring.Weights{4, 1, 2}
	probe := profile.Profile{ID: 999, Attrs: []int{9, 9, 9}}
	var others []profile.Profile
	for i := 1; i <= 8; i++ {
		others = append(others, profile.Profile{ID: profile.ID(i), Attrs: []int{9, 9, 9 + i%6}})
	}
	entries := weightedEntries(t, w, append([]profile.Profile{probe}, others...))
	self, rest := entries[0], entries[1:]

	if err := subscriber.Upload(self); err != nil {
		t.Fatal(err)
	}
	// Threshold 12·2^58 in the weighted order-sum space: wide enough that
	// some uploads land inside and narrow enough that some don't (which
	// exact ones is irrelevant — the pull answer is the ground truth).
	dist := new(big.Int).Lsh(big.NewInt(12), 58)
	sub, err := subscriber.Subscribe(self, dist, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rest {
		if err := uploader.Upload(e); err != nil {
			t.Fatal(err)
		}
	}
	// One remove so the gone path is exercised under weights too.
	if err := uploader.Remove(rest[0].ID); err != nil {
		t.Fatal(err)
	}

	want := map[profile.ID]bool{}
	results, err := uploader.QueryMaxDistance(probe.ID, dist)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		want[r.ID] = true
	}

	live := map[profile.ID]bool{}
	deadline := time.NewTimer(10 * time.Second)
	defer deadline.Stop()
	converged := func() bool {
		if len(live) != len(want) {
			return false
		}
		for id := range want {
			if !live[id] {
				return false
			}
		}
		return true
	}
	for !converged() {
		select {
		case n, ok := <-sub.C:
			if !ok {
				t.Fatalf("subscription closed before convergence: live %v, want %v", live, want)
			}
			if n.Dropped != 0 {
				t.Fatalf("notification reports %d drops; equivalence needs a lossless stream", n.Dropped)
			}
			switch n.Event {
			case client.NotifyMatch:
				live[n.ID] = true
			case client.NotifyGone:
				delete(live, n.ID)
			}
		case <-deadline.C:
			t.Fatalf("push stream did not converge: live %v, want %v", live, want)
		}
	}
	if err := sub.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
}
