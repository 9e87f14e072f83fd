package main

// Seeded input generation. Everything the server receives is a pure
// function of (workload, seed): the zipf-community population of
// real-shape entries, the dense-cell Weibo population the device cell
// registers, and the op schedules. Entries are regenerated from
// (seed, id, version) on demand, never retained by the benchmark.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/rand/v2"
	"sort"

	"smatch/internal/chain"
	"smatch/internal/dataset"
	"smatch/internal/keygen"
	"smatch/internal/match"
	"smatch/internal/profile"
)

// The shape core.Client.PrepareUpload produces at the paper's production
// parameters (k=64, N=M, 2048-bit group, Weibo d=17): 17 ciphertexts of
// 64 bits, a 32-byte key hash and a 336-byte auth blob.
const (
	realAttrs   = 17
	realCtBits  = 64
	realAuthLen = 336
)

// mix is splitmix64's finalizer, the stateless hash behind every
// per-index choice.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashOf(parts ...uint64) uint64 {
	h := uint64(0x6a09e667f3bcc908)
	for _, p := range parts {
		h = mix(h ^ p)
	}
	return h
}

func newRand(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// u128 holds an order sum: 17 ciphertexts of 64 bits need 69 bits.
type u128 struct{ hi, lo uint64 }

func (a u128) add64(x uint64) u128 {
	lo, c := bits.Add64(a.lo, x, 0)
	return u128{a.hi + c, lo}
}

func (a u128) cmp(b u128) int {
	switch {
	case a.hi != b.hi:
		if a.hi < b.hi {
			return -1
		}
		return 1
	case a.lo != b.lo:
		if a.lo < b.lo {
			return -1
		}
		return 1
	}
	return 0
}

func (a u128) absDiff(b u128) u128 {
	if a.cmp(b) < 0 {
		a, b = b, a
	}
	lo, borrow := bits.Sub64(a.lo, b.lo, 0)
	return u128{a.hi - b.hi - borrow, lo}
}

func (a u128) big() *big.Int {
	x := new(big.Int).SetUint64(a.hi)
	x.Lsh(x, 64)
	return x.Or(x, new(big.Int).SetUint64(a.lo))
}

// population is the zipf-community store content of the server
// workloads: users 1..n preloaded, later IDs uploaded by the schedule.
type population struct {
	seed   uint64
	n      int
	sizes  []int     // community sizes, zipf s=1.1, the same for every seed
	cdf    []float64 // cumulative share, for placing new users
	comm   []uint16  // comm[id-1] of preloaded user id
	hashes [][]byte  // key hash (bucket) of each community
}

const zipfS = 1.1

func newPopulation(seed uint64, n, comms int) *population {
	if comms > n {
		comms = n
	}
	p := &population{seed: seed, n: n, sizes: make([]int, comms), cdf: make([]float64, comms),
		comm: make([]uint16, n), hashes: make([][]byte, comms)}
	var total float64
	w := make([]float64, comms)
	for i := range w {
		w[i] = math.Pow(float64(i+1), -zipfS)
		total += w[i]
	}
	// Sizes are allocated, not sampled, so every seed has the same bucket
	// structure and only membership and ciphertexts differ.
	left := n - comms
	acc := 0.0
	for i := range w {
		acc += w[i] / total
		p.cdf[i] = acc
		p.sizes[i] = 1 + int(float64(n-comms)*w[i]/total)
		left -= p.sizes[i] - 1
	}
	for i := 0; left > 0; i, left = (i+1)%comms, left-1 {
		p.sizes[i]++
	}
	slot := 0
	for c, sz := range p.sizes {
		for j := 0; j < sz; j++ {
			p.comm[slot] = uint16(c)
			slot++
		}
		var b [16]byte
		binary.BigEndian.PutUint64(b[:8], seed)
		binary.BigEndian.PutUint64(b[8:], uint64(c))
		h := sha256.Sum256(append([]byte("bench/community/"), b[:]...))
		p.hashes[c] = h[:]
	}
	newRand(seed, 1).Shuffle(n, func(i, j int) { p.comm[i], p.comm[j] = p.comm[j], p.comm[i] })
	return p
}

// commOf places a user: preloaded users by the shuffled table, later
// users (and re-uploads, version > 0) by a zipf draw keyed on
// (seed, id, version). avoid excludes the user's current community.
func (p *population) commOf(id uint32, version uint32, avoid int) int {
	if version == 0 && int(id) <= p.n {
		return int(p.comm[id-1])
	}
	for salt := uint64(0); ; salt++ {
		u := float64(hashOf(p.seed, 2, uint64(id), uint64(version), salt)>>11) / (1 << 53)
		c := sort.SearchFloat64s(p.cdf, u)
		if c >= len(p.cdf) {
			c = len(p.cdf) - 1
		}
		if c != avoid || len(p.cdf) == 1 {
			return c
		}
	}
}

// values streams the ciphertext and auth words of (id, version).
func (p *population) values(id, version uint32) func() uint64 {
	s := hashOf(p.seed, 3, uint64(id), uint64(version))
	return func() uint64 { s = mix(s); return s }
}

func (p *population) orderSum(id, version uint32) u128 {
	next := p.values(id, version)
	var sum u128
	for i := 0; i < realAttrs; i++ {
		sum = sum.add64(next())
	}
	return sum
}

func (p *population) entry(id uint32, comm int, version uint32) match.Entry {
	next := p.values(id, version)
	cts := make([]*big.Int, realAttrs)
	for i := range cts {
		cts[i] = new(big.Int).SetUint64(next())
	}
	auth := make([]byte, realAuthLen)
	for o := 0; o < realAuthLen; o += 8 {
		binary.LittleEndian.PutUint64(auth[o:], next())
	}
	return match.Entry{ID: profile.ID(id), KeyHash: p.hashes[comm],
		Chain: &chain.Chain{Cts: cts, CtBits: realCtBits}, Auth: auth}
}

// member is one user in a bucket of the benchmark's own oracle.
type member struct {
	sum u128
	id  uint32
}

// oracle is the plain-sort model the server's answers are checked
// against: every bucket as a slice sorted by (order sum, id).
type oracle struct {
	byComm [][]member
	where  map[uint32][2]int32 // id -> (community, position), set by seal
}

func newOracle(comms int) *oracle {
	return &oracle{byComm: make([][]member, comms), where: make(map[uint32][2]int32)}
}

func (o *oracle) add(id uint32, comm int, sum u128) {
	o.byComm[comm] = append(o.byComm[comm], member{sum, id})
}

func (o *oracle) seal() {
	for c, b := range o.byComm {
		sort.Slice(b, func(i, j int) bool {
			if c := b[i].sum.cmp(b[j].sum); c != 0 {
				return c < 0
			}
			return b[i].id < b[j].id
		})
		for i := range b {
			o.where[b[i].id] = [2]int32{int32(c), int32(i)}
		}
	}
}

func (o *oracle) locate(id uint32) ([]member, int, error) {
	at, ok := o.where[id]
	if !ok {
		return nil, 0, fmt.Errorf("oracle: unknown user %d", id)
	}
	return o.byComm[at[0]], int(at[1]), nil
}

// knn is Definition-4 top-k over the sorted bucket: expand outward from
// the querier, nearer side first, the lower side on ties.
func (o *oracle) knn(id uint32, k int) ([]uint32, error) {
	b, pos, err := o.locate(id)
	if err != nil {
		return nil, err
	}
	out := make([]uint32, 0, k)
	lo, hi := pos-1, pos+1
	for len(out) < k && (lo >= 0 || hi < len(b)) {
		switch {
		case lo < 0:
			out, hi = append(out, b[hi].id), hi+1
		case hi >= len(b):
			out, lo = append(out, b[lo].id), lo-1
		case b[pos].sum.absDiff(b[lo].sum).cmp(b[hi].sum.absDiff(b[pos].sum)) <= 0:
			out, lo = append(out, b[lo].id), lo-1
		default:
			out, hi = append(out, b[hi].id), hi+1
		}
	}
	return out, nil
}

// within lists, in ascending (sum, id) order and capped at limit, the
// bucket members whose distance from the querier is at most d.
func (o *oracle) within(id uint32, d u128, limit int) ([]uint32, error) {
	b, pos, err := o.locate(id)
	if err != nil {
		return nil, err
	}
	var out []uint32
	for i := range b {
		if i != pos && b[pos].sum.absDiff(b[i].sum).cmp(d) <= 0 {
			if out = append(out, b[i].id); len(out) == limit {
				break
			}
		}
	}
	return out, nil
}

// radius sizes a MAX-distance query to return about 2*half users: the
// distance to the half-th neighbour on the nearer-spread side.
func (o *oracle) radius(id uint32, half int) (u128, error) {
	b, pos, err := o.locate(id)
	if err != nil {
		return u128{}, err
	}
	lo, hi := pos-half, pos+half
	if lo < 0 {
		lo = 0
	}
	if hi >= len(b) {
		hi = len(b) - 1
	}
	dl, dh := b[pos].sum.absDiff(b[lo].sum), b[hi].sum.absDiff(b[pos].sum)
	if dl.cmp(dh) < 0 {
		return dl, nil
	}
	return dh, nil
}

// pattern is an op mix as a fixed cycle, so the mix is exact rather than
// sampled and the k-th op of a kind is computable from its index alone.
type pattern struct {
	slots  []int   // op kind per slot
	prefix [][]int // prefix[kind][slot] = ops of kind before slot
	count  []int   // ops of kind per cycle
}

func newPattern(seed uint64, weights []int) pattern {
	var slots []int
	for k, w := range weights {
		for i := 0; i < w; i++ {
			slots = append(slots, k)
		}
	}
	newRand(seed, 4).Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	p := pattern{slots: slots, prefix: make([][]int, len(weights)), count: weights}
	for k := range weights {
		p.prefix[k] = make([]int, len(slots))
		n := 0
		for s, kind := range slots {
			p.prefix[k][s] = n
			if kind == k {
				n++
			}
		}
	}
	return p
}

// at returns op i's kind and its ordinal among ops of that kind.
func (p pattern) at(i uint64) (kind int, ordinal uint64) {
	n := uint64(len(p.slots))
	kind = p.slots[i%n]
	return kind, (i/n)*uint64(p.count[kind]) + uint64(p.prefix[kind][i%n])
}

// devicePop is what the device cell registers and queries: Weibo users
// from fuzzy-key cells of at least six members (so every find returns a
// full top-5 and find latency has one mode), plus every Definition-3
// neighbour those users have in the whole generated population (so the
// boundary misses recall_at_5 exists to count are present to be missed).
type devicePop struct {
	ds       *dataset.Dataset
	joiners  []profile.Profile // registration order, as generated
	queriers []int             // indices into joiners, dense-cell members
	current  []profile.Profile // joiners as last registered: drifts move them
	truth    map[profile.ID][]profile.ID
}

const (
	weiboNodes = 10000
	denseCell  = 6
	theta      = 8
	topK       = 5
)

// newDevicePop selects at least wantQueriers dense-cell users. idBase
// lifts the device users' IDs clear of a server workload's population.
func newDevicePop(seed uint64, wantQueriers int, idBase uint32, gen *keygen.Generator, ds *dataset.Dataset) (*devicePop, error) {
	cells := make(map[string][]int)
	var order []string
	for i, p := range ds.Profiles {
		fv, err := gen.FuzzyVector(p)
		if err != nil {
			return nil, err
		}
		key := fmt.Sprint(fv)
		if cells[key] == nil {
			order = append(order, key)
		}
		cells[key] = append(cells[key], i)
	}
	rng := newRand(seed, 5)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	chosen := make(map[int]bool)
	var dense []int
	for _, key := range order {
		if len(dense) >= wantQueriers {
			break
		}
		if len(cells[key]) >= denseCell {
			for _, i := range cells[key] {
				chosen[i] = true
				dense = append(dense, i)
			}
		}
	}
	if len(dense) < wantQueriers {
		return nil, fmt.Errorf("gen: only %d dense-cell users for %d queriers", len(dense), wantQueriers)
	}
	isQuerier := make(map[int]bool, len(dense))
	for _, i := range dense {
		isQuerier[i] = true
	}
	all := append([]int(nil), dense...)
	for _, i := range dense {
		for j, v := range ds.Profiles {
			if ok, err := profile.Close(ds.Profiles[i], v, theta); err == nil && ok && !chosen[j] {
				chosen[j] = true
				all = append(all, j)
			}
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	dp := &devicePop{ds: ds}
	for at, i := range all {
		p := ds.Profiles[i].Clone()
		p.ID += profile.ID(idBase)
		dp.joiners = append(dp.joiners, p)
		if isQuerier[i] {
			dp.queriers = append(dp.queriers, at)
		}
	}
	dp.reset()
	return dp, nil
}

// reset is the state after every joiner registered as generated.
func (dp *devicePop) reset() {
	dp.current = append(dp.current[:0], dp.joiners...)
	dp.retruth()
}

// retruth recomputes every querier's plaintext Definition-3 neighbours
// among the registered users as they now are.
func (dp *devicePop) retruth() {
	dp.truth = make(map[profile.ID][]profile.ID, len(dp.queriers))
	for _, qi := range dp.queriers {
		q := dp.current[qi]
		for j, v := range dp.current {
			if ok, err := profile.Close(q, v, theta); j != qi && err == nil && ok {
				dp.truth[q.ID] = append(dp.truth[q.ID], v.ID)
			}
		}
	}
}

// drift moves one attribute of a joiner of device dev (of nd; joiner j is
// device j%nd's) by one step from where it was generated, staying in its
// domain: the k-th drift of a run is the same for a seed. It returns the
// joiner's index and its new profile.
func (dp *devicePop) drift(seed uint64, k, dev, nd int) (int, profile.Profile) {
	h := hashOf(seed, 6, uint64(k))
	j := int(h % uint64(len(dp.joiners)))
	if j = j - j%nd + dev; j >= len(dp.joiners) {
		j -= nd
	}
	p := dp.joiners[j].Clone()
	a := int((h >> 20) % uint64(len(p.Attrs)))
	step := 1
	if (h>>40)&1 == 1 {
		step = -1
	}
	if v := p.Attrs[a] + step; v < 0 || v >= dp.ds.Schema.Attrs[a].NumValues {
		step = -step
	}
	p.Attrs[a] += step
	return j, p
}
