// Benchmarks mirroring the paper's evaluation, one family per table or
// figure. These are the micro-benchmark counterparts of cmd/smatch-bench:
// that command prints the full tables; these give per-operation costs under
// `go test -bench`.
//
//	go test -bench=. -benchmem
package smatch

import (
	"fmt"
	"math/big"
	"sync"
	"testing"

	"smatch/internal/core"
	"smatch/internal/dataset"
	"smatch/internal/entropy"
	"smatch/internal/experiment"
	"smatch/internal/homopm"
	"smatch/internal/leakage"
	"smatch/internal/match"
	"smatch/internal/oprf"
	"smatch/internal/prf"
	"smatch/internal/profile"
)

// Shared fixtures: RSA keygen and dataset generation are setup, not the
// measured operations.
var (
	benchOnce sync.Once
	benchOPRF *oprf.Server
	benchDS   *dataset.Dataset
)

func benchFixtures(b *testing.B) (*oprf.Server, *dataset.Dataset) {
	b.Helper()
	benchOnce.Do(func() {
		srv, err := oprf.NewServer(1024)
		if err != nil {
			panic(err)
		}
		benchOPRF = srv
		benchDS = dataset.Infocom06()
	})
	return benchOPRF, benchDS
}

func benchSystem(b *testing.B, params core.Params) (*core.System, *core.Client) {
	b.Helper()
	srv, ds := benchFixtures(b)
	sys, err := core.NewSystem(ds.Schema, ds.EmpiricalDist(), params, srv.PublicKey(), nil)
	if err != nil {
		b.Fatal(err)
	}
	dev, err := sys.NewClient(srv, []byte("bench-device"))
	if err != nil {
		b.Fatal(err)
	}
	return sys, dev
}

// --- Table II: dataset generation and statistics ---

func BenchmarkTable2DatasetStats(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dataset.Infocom06().Stats()
	}
}

// --- Figure 1: the known-pair pruning attack ---

func BenchmarkFig1LeakageSearch(b *testing.B) {
	stored, pairOf := leakage.Figure1Table(10000)
	known := []leakage.Pair{pairOf(100), pairOf(9000)}
	target := big.NewInt(5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := leakage.SearchSpace(stored, known, target); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 4(a): the entropy-increase mapping ---

func benchFig4aMapping(b *testing.B, k uint) {
	_, ds := benchFixtures(b)
	m, err := entropy.NewMapper(ds.EmpiricalDist()[0], k)
	if err != nil {
		b.Fatal(err)
	}
	coins := prf.New([]byte("bench"), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Map(0, coins); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4aMapping64(b *testing.B)   { benchFig4aMapping(b, 64) }
func BenchmarkFig4aMapping2048(b *testing.B) { benchFig4aMapping(b, 2048) }

// --- Figure 4(b): the matching pipeline ---

func BenchmarkFig4bMatchQuery(b *testing.B) {
	srv, ds := benchFixtures(b)
	sys, err := core.NewSystem(ds.Schema, ds.EmpiricalDist(),
		core.Params{PlaintextBits: 64, Theta: 8}, srv.PublicKey(), nil)
	if err != nil {
		b.Fatal(err)
	}
	store := match.NewServer()
	for _, p := range ds.Profiles {
		dev, err := sys.NewClient(srv, []byte(fmt.Sprintf("d%d", p.ID)))
		if err != nil {
			b.Fatal(err)
		}
		entry, _, err := dev.PrepareUpload(p)
		if err != nil {
			b.Fatal(err)
		}
		if err := store.Upload(entry); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ds.Profiles[i%len(ds.Profiles)].ID
		if _, err := store.Match(id, core.DefaultTopK); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 4(c-e): client computation cost ---

// benchClientPM measures the paper's PM client pipeline (Keygen + InitData
// + Enc) at one plaintext size, in the paper's N=M configuration.
func benchClientPM(b *testing.B, k uint, withAuth bool) {
	_, ds := benchFixtures(b)
	_, dev := benchSystem(b, core.Params{PlaintextBits: k, Theta: 8})
	p := ds.Profiles[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ID = profile.ID(i + 1) // a new user each time: the device's memo would skip the OPRF and re-send Auth's blob
		key, err := dev.Keygen(p)
		if err != nil {
			b.Fatal(err)
		}
		mapped, err := dev.InitData(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dev.Enc(key, p.ID, mapped); err != nil {
			b.Fatal(err)
		}
		if withAuth {
			if _, err := dev.Auth(key, p.ID); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig4ClientPM64(b *testing.B)    { benchClientPM(b, 64, false) }
func BenchmarkFig4ClientPM256(b *testing.B)   { benchClientPM(b, 256, false) }
func BenchmarkFig4ClientPM1024(b *testing.B)  { benchClientPM(b, 1024, false) }
func BenchmarkFig4ClientPM2048(b *testing.B)  { benchClientPM(b, 2048, false) }
func BenchmarkFig4ClientPMV64(b *testing.B)   { benchClientPM(b, 64, true) }
func BenchmarkFig4ClientPMV2048(b *testing.B) { benchClientPM(b, 2048, true) }

// benchClientPMExpanded measures the PM pipeline with a 16-bit-expanded OPE
// range — the honest cost of a non-degenerate order-preserving function.
func benchClientPMExpanded(b *testing.B, k uint) {
	_, ds := benchFixtures(b)
	_, dev := benchSystem(b, core.Params{PlaintextBits: k, CiphertextBits: k + 16, Theta: 8})
	p := ds.Profiles[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ID = profile.ID(i + 1) // a new user each time, as in benchClientPM
		key, err := dev.Keygen(p)
		if err != nil {
			b.Fatal(err)
		}
		mapped, err := dev.InitData(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dev.Enc(key, p.ID, mapped); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4ClientPMExpanded64(b *testing.B)   { benchClientPMExpanded(b, 64) }
func BenchmarkFig4ClientPMExpanded2048(b *testing.B) { benchClientPMExpanded(b, 2048) }

// benchClientHomoPM measures the baseline's client step: d Paillier
// encryptions of the same mapped workload.
func benchClientHomoPM(b *testing.B, k uint) {
	_, ds := benchFixtures(b)
	_, dev := benchSystem(b, core.Params{PlaintextBits: k, Theta: 8})
	p := ds.Profiles[0]
	mapped, err := dev.InitData(p)
	if err != nil {
		b.Fatal(err)
	}
	homo, err := homopm.NewSystem(k, ds.Schema.NumAttrs(), 1024)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := homo.EncryptProfile(p.ID, mapped); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4ClientHomoPM64(b *testing.B)   { benchClientHomoPM(b, 64) }
func BenchmarkFig4ClientHomoPM2048(b *testing.B) { benchClientHomoPM(b, 2048) }

// --- Figures 5(a-c): server computation cost ---

func BenchmarkFig5ServerHomoPMQuery(b *testing.B) {
	_, ds := benchFixtures(b)
	_, dev := benchSystem(b, core.Params{PlaintextBits: 64, Theta: 8})
	homo, err := homopm.NewSystem(64, ds.Schema.NumAttrs(), 1024)
	if err != nil {
		b.Fatal(err)
	}
	hsrv := homopm.NewServer(homo.PublicKey())
	for _, p := range ds.Profiles {
		mapped, err := dev.InitData(p)
		if err != nil {
			b.Fatal(err)
		}
		up, err := homo.EncryptProfile(p.ID, mapped)
		if err != nil {
			b.Fatal(err)
		}
		if err := hsrv.Store(up); err != nil {
			b.Fatal(err)
		}
	}
	mapped, _ := dev.InitData(ds.Profiles[0])
	q, err := homo.EncryptQuery(999999, mapped)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hsrv.Match(q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 5(d-f): communication cost accounting ---

func BenchmarkFig5CommUploadEncode(b *testing.B) {
	srv, ds := benchFixtures(b)
	sys, err := core.NewSystem(ds.Schema, ds.EmpiricalDist(),
		core.Params{PlaintextBits: 64, Theta: 8}, srv.PublicKey(), nil)
	if err != nil {
		b.Fatal(err)
	}
	dev, err := sys.NewClient(srv, []byte("comm"))
	if err != nil {
		b.Fatal(err)
	}
	entry, _, err := dev.PrepareUpload(ds.Profiles[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = entry.Chain.Bytes()
	}
}

// --- whole-figure regeneration (gauge of the harness itself) ---

func BenchmarkExperimentTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.Table2(400)
	}
}
