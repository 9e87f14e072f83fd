package experiment

import (
	"fmt"
	"math/big"
	"runtime"
	"sync"
	"time"

	"smatch/internal/core"
	"smatch/internal/dataset"
	"smatch/internal/homopm"
	"smatch/internal/profile"
)

// homoPM deployments are cached per (plaintext size, dimension): Paillier
// key generation at 2048-bit plaintexts takes seconds and is setup, not
// the per-operation cost the figures measure.
var (
	homoMu    sync.Mutex
	homoCache = map[string]*homopm.System{}
)

func homoSystem(plaintextBits uint, d int) (*homopm.System, error) {
	key := fmt.Sprintf("%d/%d", plaintextBits, d)
	homoMu.Lock()
	defer homoMu.Unlock()
	if s, ok := homoCache[key]; ok {
		return s, nil
	}
	s, err := homopm.NewSystem(plaintextBits, d, 1024)
	if err != nil {
		return nil, err
	}
	homoCache[key] = s
	return s, nil
}

// Fig4Client reproduces one of Figures 4(c), 4(d), 4(e): the client-side
// computation cost versus plaintext size for one dataset. Four series are
// reported:
//
//	PM       — S-MATCH matching pipeline (Keygen + InitData + Enc) in the
//	           paper's configuration (OPE range = plaintext range, N = M).
//	PM+V     — PM plus the verification protocol (Auth).
//	PM(exp)  — PM with a 16-bit-expanded OPE range, the cost of running
//	           the OPE with a non-degenerate range (ablation; see notes).
//	homoPM   — the baseline's client step: d Paillier encryptions under a
//	           modulus large enough for k-bit values.
func Fig4Client(ds *dataset.Dataset, opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:     "Fig 4(c-e)",
		Title:  fmt.Sprintf("Client computation cost (ms) under %s", ds.Name),
		Header: []string{"Plaintext size", "PM", "PM+V", "PM(exp)", "homoPM"},
	}
	users := ds.Profiles[:opts.CostUsers]
	for _, k := range opts.PlaintextSizes {
		pm, err := measureClient(ds, users, core.Params{PlaintextBits: k, Theta: 8}, false)
		if err != nil {
			return nil, fmt.Errorf("experiment: PM k=%d: %w", k, err)
		}
		pmv, err := measureClient(ds, users, core.Params{PlaintextBits: k, Theta: 8}, true)
		if err != nil {
			return nil, fmt.Errorf("experiment: PM+V k=%d: %w", k, err)
		}
		pmExp, err := measureClient(ds, users, core.Params{PlaintextBits: k, CiphertextBits: k + 16, Theta: 8}, false)
		if err != nil {
			return nil, fmt.Errorf("experiment: PM(exp) k=%d: %w", k, err)
		}
		homo, err := measureHomoClient(ds, users, k)
		if err != nil {
			return nil, fmt.Errorf("experiment: homoPM k=%d: %w", k, err)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(k),
			ms(pm), ms(pmv), ms(pmExp), ms(homo)})
	}
	t.Notes = append(t.Notes,
		"Paper shape: PM and PM+V well below homoPM from k>=256, gap widening with k; PM+V - PM is a near-constant verification overhead.",
		"PM/PM+V use the paper's N=M OPE range, under which an order-preserving function is forced to the identity; PM(exp) shows the honest cost of a 16-bit-expanded range.",
	)
	return t, nil
}

// measureClient times one user's client pipeline, averaged over users.
func measureClient(ds *dataset.Dataset, users []profile.Profile, params core.Params, withAuth bool) (time.Duration, error) {
	dep, err := newDeployment(ds, params)
	if err != nil {
		return 0, err
	}
	// Collect the set-up's garbage now, not concurrently with the timing.
	runtime.GC()
	var total time.Duration
	for _, p := range users {
		// A fresh Client per user keeps Keygen on the OPRF, since a memo
		// hit needs an earlier Keygen for the same user, and keeps Auth
		// inline, since only a client that has already run Auth has a
		// commitment ready or a blob to re-send. PM+V - PM stays the
		// whole of Auth's computation.
		dev, err := dep.device(p.ID)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		key, err := dev.Keygen(p)
		if err != nil {
			return 0, err
		}
		mapped, err := dev.InitData(p)
		if err != nil {
			return 0, err
		}
		if _, err := dev.Enc(key, p.ID, mapped); err != nil {
			return 0, err
		}
		if withAuth {
			if _, err := dev.Auth(key, p.ID); err != nil {
				return 0, err
			}
		}
		total += time.Since(start)
	}
	return total / time.Duration(len(users)), nil
}

// measureHomoClient times the baseline client step: encrypting one user's
// mapped k-bit attribute vector under Paillier.
func measureHomoClient(ds *dataset.Dataset, users []profile.Profile, k uint) (time.Duration, error) {
	sys, err := homoSystem(k, ds.Schema.NumAttrs())
	if err != nil {
		return 0, err
	}
	values, err := mappedWorkload(ds, users, k)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	var total time.Duration
	for i, p := range users {
		start := time.Now()
		if _, err := sys.EncryptProfile(p.ID, values[i]); err != nil {
			return 0, err
		}
		total += time.Since(start)
	}
	return total / time.Duration(len(users)), nil
}

// mappedWorkload produces the same k-bit entropy-increased values both
// schemes encrypt, so the comparison is apples to apples.
func mappedWorkload(ds *dataset.Dataset, users []profile.Profile, k uint) ([][]*big.Int, error) {
	dep, err := newDeployment(ds, core.Params{PlaintextBits: k, Theta: 8})
	if err != nil {
		return nil, err
	}
	out := make([][]*big.Int, len(users))
	for i, p := range users {
		dev, err := dep.device(p.ID)
		if err != nil {
			return nil, err
		}
		if out[i], err = dev.InitData(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Fig5Server reproduces one of Figures 5(a), 5(b), 5(c): the server-side
// computation cost per matching query versus plaintext size, S-MATCH (PM)
// against homoPM, for one dataset.
func Fig5Server(ds *dataset.Dataset, opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:     "Fig 5(a-c)",
		Title:  fmt.Sprintf("Server computation cost (ms per query) under %s", ds.Name),
		Header: []string{"Plaintext size", "PM", "homoPM"},
	}
	for _, k := range opts.PlaintextSizes {
		pm, err := measureServerPM(ds, k)
		if err != nil {
			return nil, fmt.Errorf("experiment: server PM k=%d: %w", k, err)
		}
		homo, err := measureServerHomo(ds, k, opts)
		if err != nil {
			return nil, fmt.Errorf("experiment: server homoPM k=%d: %w", k, err)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(k), ms(pm), ms(homo)})
	}
	t.Notes = append(t.Notes,
		"Paper shape: PM orders of magnitude below homoPM at every size — ciphertext sorting/search vs Θ(N·d) modular multiplications per query.",
		fmt.Sprintf("N = %d users, d = %d attributes.", len(ds.Profiles), ds.Schema.NumAttrs()))
	return t, nil
}

func measureServerPM(ds *dataset.Dataset, k uint) (time.Duration, error) {
	dep, err := newDeployment(ds, core.Params{PlaintextBits: k, Theta: 8})
	if err != nil {
		return 0, err
	}
	if err := dep.uploadAll(false); err != nil {
		return 0, err
	}
	// Average the query path over a sample of users.
	sample := ds.Profiles
	if len(sample) > 50 {
		sample = sample[:50]
	}
	start := time.Now()
	for _, p := range sample {
		if _, err := dep.server.Match(p.ID, core.DefaultTopK); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(len(sample)), nil
}

func measureServerHomo(ds *dataset.Dataset, k uint, opts Options) (time.Duration, error) {
	sys, err := homoSystem(k, ds.Schema.NumAttrs())
	if err != nil {
		return 0, err
	}
	sv := homopm.NewServer(sys.PublicKey())
	users := ds.Profiles
	// Cap the homoPM population: its per-query cost is exactly linear in
	// N (d ciphertext multiplications per candidate), so we measure at a
	// capped N and scale — uploading 10^3+ Paillier profiles at 2048 bits
	// would take hours without changing the per-candidate cost.
	const maxUsers = 60
	scale := 1.0
	if len(users) > maxUsers {
		scale = float64(len(users)) / maxUsers
		users = users[:maxUsers]
	}
	values, err := mappedWorkload(ds, users, k)
	if err != nil {
		return 0, err
	}
	for i, p := range users {
		up, err := sys.EncryptProfile(p.ID, values[i])
		if err != nil {
			return 0, err
		}
		if err := sv.Store(up); err != nil {
			return 0, err
		}
	}
	q, err := sys.EncryptQuery(9999999, values[0])
	if err != nil {
		return 0, err
	}
	const iters = 3
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := sv.Match(q); err != nil {
			return 0, err
		}
	}
	per := time.Since(start) / iters
	return time.Duration(float64(per) * scale), nil
}

// Fig5Comm reproduces one of Figures 5(d), 5(e), 5(f): the communication
// cost in bits versus entropy (the k-bit message space) for one dataset,
// with and without the verification protocol. Per the paper's accounting:
// user ID 32 bits, 5 query results, ciphertext length N = M.
func Fig5Comm(ds *dataset.Dataset, opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:     "Fig 5(d-f)",
		Title:  fmt.Sprintf("Communication cost (bits) under %s", ds.Name),
		Header: []string{"Entropy (bits)", "PM upload", "PM+V upload", "PM total", "PM+V total"},
	}
	oprfSrv, grp, err := fixtures()
	if err != nil {
		return nil, err
	}
	for _, k := range opts.PlaintextSizes {
		sys, err := core.NewSystem(ds.Schema, ds.EmpiricalDist(),
			core.Params{PlaintextBits: k, Theta: 8}, oprfSrv.PublicKey(), grp)
		if err != nil {
			return nil, err
		}
		pmUp := sys.UploadBits(false)
		pmvUp := sys.UploadBits(true)
		pmTotal := pmUp + sys.ResultBits(false)
		pmvTotal := pmvUp + sys.ResultBits(true)
		t.Rows = append(t.Rows, []string{fmt.Sprint(k),
			fmt.Sprint(pmUp), fmt.Sprint(pmvUp), fmt.Sprint(pmTotal), fmt.Sprint(pmvTotal)})
	}
	t.Notes = append(t.Notes,
		"Paper shape: linear growth in the entropy bits; PM+V a near-constant above PM (the auth info); Weibo highest (17 attributes vs 6).",
		fmt.Sprintf("d = %d attributes; ID = 32 bits; %d results per query; N = M.", ds.Schema.NumAttrs(), core.DefaultTopK))
	return t, nil
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.4g", float64(d.Nanoseconds())/1e6)
}
