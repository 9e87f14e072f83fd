package experiment

import (
	"fmt"

	"smatch/internal/core"
	"smatch/internal/dataset"
	"smatch/internal/match"
	"smatch/internal/profile"
)

// Fig4b reproduces Figure 4(b): the true-positive rate of profile matching
// as the RS-decoder threshold theta varies, at the paper's settings
// (plaintext size 64 bits, 5 query results).
//
// TPR is "the proportion of true cases that are correctly found"
// (Equation 5): for every user u the true cases are the other users within
// Definition-3 distance theta, and a true case is found when it appears in
// u's top-k results. TP losses come from quantization-boundary key splits
// (profiles near a cell boundary derive different keys) and from top-k
// truncation as truth sets grow with theta — the downward trend the paper
// reports.
func Fig4b(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:     "Fig 4(b)",
		Title:  "True positive rate of profile matching vs RS decoder threshold",
		Header: []string{"Theta"},
	}
	datasets := []*dataset.Dataset{dataset.Infocom06(), dataset.Sigcomm09(), dataset.Weibo(opts.WeiboNodes)}
	for _, d := range datasets {
		t.Header = append(t.Header, d.Name)
	}
	for _, theta := range opts.Thetas {
		row := []string{fmt.Sprint(theta)}
		for _, d := range datasets {
			tpr, err := MeasureTPR(d, theta, core.DefaultTopK)
			if err != nil {
				return nil, fmt.Errorf("experiment: fig4b %s theta=%d: %w", d.Name, theta, err)
			}
			row = append(row, fmt.Sprintf("%.3f", tpr))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"Paper shape: TPR in the ~0.85-0.99 band, decreasing as theta grows; Weibo slightly lowest.",
		"Settings: plaintext size 64, top-5 results, ground truth = Definition-3 distance <= theta.")
	return t, nil
}

// MeasureTPR runs the full matching pipeline on one dataset at one
// threshold and returns the Equation-5 true-positive rate.
func MeasureTPR(ds *dataset.Dataset, theta, topK int) (float64, error) {
	return measureTPRParams(ds, core.Params{PlaintextBits: 64, Theta: theta, TopK: topK}, queryMatch)
}

// queryMatch is the paper's query: the querier's own key bucket only.
func queryMatch(dep *deployment, p profile.Profile, topK int) ([]match.Result, error) {
	return dep.server.Match(p.ID, topK)
}

// measureTPRParams is MeasureTPR with explicit scheme parameters (the
// ablations vary more than theta) and query, which returns querier p's
// top-k results from the deployment.
func measureTPRParams(ds *dataset.Dataset, params core.Params,
	query func(dep *deployment, p profile.Profile, topK int) ([]match.Result, error)) (float64, error) {
	theta, topK := params.Theta, params.TopK
	dep, err := newDeployment(ds, params)
	if err != nil {
		return 0, err
	}
	if err := dep.uploadAll(false); err != nil {
		return 0, err
	}

	// Large datasets: evaluating every querier against every peer is
	// quadratic; a sample of queriers gives the same statistic.
	queriers := ds.Profiles
	const maxQueriers = 300
	if len(queriers) > maxQueriers {
		queriers = queriers[:maxQueriers]
	}

	var tp, total int
	for _, p := range queriers {
		truth := make(map[profile.ID]bool)
		for _, v := range ds.Profiles {
			if v.ID == p.ID {
				continue
			}
			if ok, err := profile.Close(p, v, theta); err == nil && ok {
				truth[v.ID] = true
			}
		}
		if len(truth) == 0 {
			continue // long-tail user with no true cases
		}
		results, err := query(dep, p, topK)
		if err != nil {
			return 0, err
		}
		for _, r := range results {
			if truth[r.ID] {
				tp++
			}
		}
		total += len(truth)
	}
	if total == 0 {
		return 0, fmt.Errorf("experiment: dataset %s has no close pairs at theta=%d", ds.Name, theta)
	}
	return float64(tp) / float64(total), nil
}
