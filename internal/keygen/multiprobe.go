package keygen

import (
	"fmt"
	"sort"

	"smatch/internal/gf"
	"smatch/internal/oprf"
	"smatch/internal/profile"
)

// Multi-probe key generation is this repository's extension to S-MATCH
// (in the spirit of the paper's future-work direction of improving the
// OPE/key pipeline): the dominant true-positive loss in fuzzy key
// generation is quantization-boundary straddling — two profiles within
// theta that land in adjacent cells derive different keys and never see
// each other. A querier can recover those matches by probing the keys of
// neighboring cells for her most boundary-adjacent attributes: the
// candidates are exactly the keys a straddling peer could hold.
//
// Probing is query-side only: uploads still carry a single key hash, so
// the server learns nothing new beyond which (at most maxProbes+1) buckets
// a query inspects.

// Candidate is one probe key with its provenance.
type Candidate struct {
	Key *Key
	// Attr is the attribute whose cell was flipped (-1 for the primary key).
	Attr int
	// Delta is the cell shift (-1 or +1; 0 for the primary key).
	Delta int
}

// ProfileKeyCandidates returns the primary profile key followed by up to
// maxProbes alternate keys, ordered by how close the flipped attribute sits
// to its cell boundary (most likely straddles first). All candidates are
// hardened in one batched OPRF exchange (oprf.EvalBatch), so probing adds
// bandwidth but not round trips.
func (g *Generator) ProfileKeyCandidates(p profile.Profile, maxProbes int) ([]Candidate, error) {
	if maxProbes < 0 {
		return nil, fmt.Errorf("keygen: negative probe count %d", maxProbes)
	}
	if maxProbes == 0 {
		primary, err := g.ProfileKey(p)
		if err != nil {
			return nil, err
		}
		return []Candidate{{Key: primary, Attr: -1, Delta: 0}}, nil
	}

	// Rank attributes by distance from the value to the nearest cell
	// boundary; a small distance means a theta-close peer plausibly sits
	// in the adjacent cell.
	w := 2*g.theta + 1
	type probe struct {
		attr, delta, dist int
	}
	var probes []probe
	for i, v := range p.Attrs {
		r := v % w
		// Distance to the lower boundary (previous cell) and to the
		// upper one (next cell).
		if v >= w { // a previous cell exists
			probes = append(probes, probe{attr: i, delta: -1, dist: r + 1})
		}
		if cells := (g.schema.Attrs[i].NumValues + w - 1) / w; v/w < cells-1 {
			probes = append(probes, probe{attr: i, delta: +1, dist: w - r})
		}
	}
	sort.Slice(probes, func(a, b int) bool {
		if probes[a].dist != probes[b].dist {
			return probes[a].dist < probes[b].dist
		}
		if probes[a].attr != probes[b].attr {
			return probes[a].attr < probes[b].attr
		}
		return probes[a].delta < probes[b].delta
	})
	if len(probes) > maxProbes {
		probes = probes[:maxProbes]
	}

	// Assemble every candidate's OPRF input (primary first), then harden
	// the whole set in one batched exchange.
	q, err := g.Quantize(p)
	if err != nil {
		return nil, err
	}
	meta := []Candidate{{Attr: -1, Delta: 0}}
	primary, err := g.snap(q)
	if err != nil {
		return nil, err
	}
	seeds := [][]byte{hashFuzzyVector(g.theta, g.binding, primary)}
	for _, pr := range probes {
		alt := make([]gf.Elem, len(q))
		copy(alt, q)
		alt[pr.attr] = gf.Elem(int(alt[pr.attr]) + pr.delta)
		snapped, err := g.snap(alt)
		if err != nil {
			return nil, err
		}
		meta = append(meta, Candidate{Attr: pr.attr, Delta: pr.delta})
		seeds = append(seeds, hashFuzzyVector(g.theta, g.binding, snapped))
	}
	hardened, err := oprf.EvalBatch(g.pk, g.eval, seeds)
	if err != nil {
		return nil, fmt.Errorf("keygen: OPRF hardening: %w", err)
	}
	out := make([]Candidate, len(meta))
	for i := range meta {
		out[i] = meta[i]
		out[i].Key = &Key{bytes: hardened[i]}
	}
	return out, nil
}
