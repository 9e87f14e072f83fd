package experiment

import (
	"crypto/rand"
	"crypto/rsa"
	"fmt"
	"math/big"
	"sync"

	"smatch/internal/core"
	"smatch/internal/dataset"
	"smatch/internal/group"
	"smatch/internal/match"
	"smatch/internal/oprf"
	"smatch/internal/profile"
)

// Shared fixtures: one RSA-OPRF key and one small verification group serve
// every experiment — regenerating them per data point would dominate the
// measurements without changing them.
var (
	fixOnce sync.Once
	fixOPRF *oprf.Server
	fixGrp  *group.Group
	fixErr  error
)

func fixtures() (*oprf.Server, *group.Group, error) {
	fixOnce.Do(func() {
		key, err := rsa.GenerateKey(rand.Reader, 1024)
		if err != nil {
			fixErr = err
			return
		}
		fixOPRF, _ = oprf.NewServerFromKey(key)
		if fixGrp, fixErr = group.Generate(512, nil); fixErr == nil {
			// A group builds its Pow table on first use: do that here, so
			// that no timed Auth pays for it.
			fixGrp.Pow(new(big.Int))
		}
	})
	return fixOPRF, fixGrp, fixErr
}

// deployment is one in-process S-MATCH instance over a dataset.
type deployment struct {
	ds     *dataset.Dataset
	sys    *core.System
	oprf   *oprf.Server
	server *match.Server
	keys   map[profile.ID][]byte    // profile keys kept device-side
	byHash map[string][]match.Entry // uploaded entries by key hash
}

// newDeployment builds a system for the dataset at the given parameters.
func newDeployment(ds *dataset.Dataset, params core.Params) (*deployment, error) {
	oprfSrv, grp, err := fixtures()
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(ds.Schema, ds.EmpiricalDist(), params, oprfSrv.PublicKey(), grp)
	if err != nil {
		return nil, fmt.Errorf("experiment: system for %s: %w", ds.Name, err)
	}
	return &deployment{
		ds:     ds,
		sys:    sys,
		oprf:   oprfSrv,
		server: match.NewServer(),
		keys:   make(map[profile.ID][]byte, len(ds.Profiles)),
		byHash: make(map[string][]match.Entry),
	}, nil
}

// device returns a per-user client bound to this deployment.
func (dep *deployment) device(id profile.ID) (*core.Client, error) {
	secret := []byte(fmt.Sprintf("device-secret-%d", id))
	return dep.sys.NewClient(dep.oprf, secret)
}

// uploadAll runs every user's client pipeline and stores the records.
// withAuth controls whether authentication blobs are generated (the
// matching-accuracy experiments skip them; the verification and cost
// experiments need them).
func (dep *deployment) uploadAll(withAuth bool) error {
	for _, p := range dep.ds.Profiles {
		dev, err := dep.device(p.ID)
		if err != nil {
			return err
		}
		var entry match.Entry
		if withAuth {
			e, key, err := dev.PrepareUpload(p)
			if err != nil {
				return fmt.Errorf("experiment: upload %s/%d: %w", dep.ds.Name, p.ID, err)
			}
			entry = e
			dep.keys[p.ID] = key.Bytes()
		} else {
			key, err := dev.Keygen(p)
			if err != nil {
				return err
			}
			mapped, err := dev.InitData(p)
			if err != nil {
				return err
			}
			ch, err := dev.Enc(key, p.ID, mapped)
			if err != nil {
				return err
			}
			entry = match.Entry{ID: p.ID, KeyHash: key.Hash(), Chain: ch, Auth: []byte{0}}
			dep.keys[p.ID] = key.Bytes()
		}
		if err := dep.server.Upload(entry); err != nil {
			return err
		}
		dep.byHash[string(entry.KeyHash)] = append(dep.byHash[string(entry.KeyHash)], entry)
	}
	return nil
}
