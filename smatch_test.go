package smatch

import (
	"sync"
	"testing"
)

// Root-package API tests: the façade must expose a workable public surface;
// deep behaviour is tested in the internal packages.

var (
	apiOnce sync.Once
	apiOPRF *OPRFServer
)

func apiFixtures(t *testing.T) *OPRFServer {
	t.Helper()
	apiOnce.Do(func() {
		srv, err := NewOPRFServer(1024)
		if err != nil {
			panic(err)
		}
		apiOPRF = srv
	})
	return apiOPRF
}

func apiSchema() (Schema, [][]float64) {
	schema := Schema{Attrs: []AttributeSpec{
		{Name: "a", NumValues: 8},
		{Name: "b", NumValues: 8},
		{Name: "c", NumValues: 32},
	}}
	flat := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = 1 / float64(n)
		}
		return out
	}
	return schema, [][]float64{flat(8), flat(8), flat(32)}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	oprfSrv := apiFixtures(t)
	schema, dist := apiSchema()
	sys, err := NewSystem(schema, dist, Params{PlaintextBits: 64, Theta: 3}, oprfSrv.PublicKey(), nil)
	if err != nil {
		t.Fatal(err)
	}
	server := NewMatchServer()

	profiles := []Profile{
		{ID: 1, Attrs: []int{1, 2, 10}},
		{ID: 2, Attrs: []int{1, 2, 11}},
		{ID: 3, Attrs: []int{7, 7, 30}},
	}
	var queryKey *Key
	for i, p := range profiles {
		dev, err := sys.NewClient(oprfSrv, []byte{byte('a' + i)})
		if err != nil {
			t.Fatal(err)
		}
		entry, key, err := dev.PrepareUpload(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := server.Upload(entry); err != nil {
			t.Fatal(err)
		}
		if p.ID == 2 {
			queryKey = key
		}
	}
	results, err := server.Match(2, DefaultTopK)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].ID != 1 {
		t.Fatalf("results = %+v, want only user 1", results)
	}
	dev, err := sys.NewClient(oprfSrv, []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	verified, rejected, err := dev.VerifyResults(queryKey, results)
	if err != nil {
		t.Fatal(err)
	}
	if len(verified) != 1 || rejected != 0 {
		t.Errorf("verified=%d rejected=%d", len(verified), rejected)
	}
}

func TestDatasetsExposed(t *testing.T) {
	all := Datasets()
	if len(all) != 3 {
		t.Fatalf("Datasets() returned %d datasets", len(all))
	}
	names := map[string]bool{}
	for _, d := range all {
		names[d.Name] = true
		if len(d.Profiles) == 0 {
			t.Errorf("%s has no profiles", d.Name)
		}
	}
	for _, want := range []string{"Infocom06", "Sigcomm09", "Weibo"} {
		if !names[want] {
			t.Errorf("missing dataset %s", want)
		}
		if _, err := DatasetByName(want); err != nil {
			t.Errorf("DatasetByName(%s): %v", want, err)
		}
	}
	if _, err := DatasetByName("nope"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestDistanceExposed(t *testing.T) {
	d, err := Distance(Profile{Attrs: []int{1, 5}}, Profile{Attrs: []int{4, 5}})
	if err != nil || d != 3 {
		t.Errorf("Distance = %d, %v", d, err)
	}
}

func TestHomoPMExposed(t *testing.T) {
	sys, err := NewHomoPMSystem(64, 3)
	if err != nil {
		t.Fatal(err)
	}
	if NewHomoPMServer(sys) == nil {
		t.Error("nil homoPM server")
	}
}
