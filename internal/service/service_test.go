// Unit tests for the service registry, driving handlers directly at the
// payload level — no sockets. The network path is covered by the
// integration suites in internal/server and internal/client.
package service

import (
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"math/big"
	"sync"
	"testing"

	"smatch/internal/chain"
	"smatch/internal/match"
	"smatch/internal/metrics"
	"smatch/internal/oprf"
	"smatch/internal/profile"
	"smatch/internal/wire"
)

var (
	oprfOnce sync.Once
	oprfSrv  *oprf.Server
)

func testOPRF(t testing.TB) *oprf.Server {
	t.Helper()
	oprfOnce.Do(func() {
		key, err := rsa.GenerateKey(rand.Reader, 1024)
		if err != nil {
			panic(err)
		}
		oprfSrv, _ = oprf.NewServerFromKey(key)
	})
	return oprfSrv
}

func testRegistry(t *testing.T, deps Deps) *Registry {
	t.Helper()
	if deps.Store == nil {
		deps.Store = match.NewServer()
	}
	if deps.OPRF == nil {
		deps.OPRF = testOPRF(t)
	}
	r, err := New(deps)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func uploadPayload(id profile.ID, keyHash string, sum int64) []byte {
	ch := &chain.Chain{Cts: []*big.Int{big.NewInt(sum)}, CtBits: 48}
	req := wire.UploadReq{
		ID:       id,
		KeyHash:  []byte(keyHash),
		CtBits:   uint32(ch.CtBits),
		NumAttrs: uint16(ch.NumAttrs()),
		Chain:    ch.Bytes(),
		Auth:     []byte{1},
	}
	return req.Encode()
}

func TestNewValidatesDeps(t *testing.T) {
	if _, err := New(Deps{OPRF: testOPRF(t)}); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := New(Deps{Store: match.NewServer()}); err == nil {
		t.Error("nil OPRF accepted")
	}
}

func TestUploadThenQuery(t *testing.T) {
	m := metrics.New()
	r := testRegistry(t, Deps{Metrics: m})
	for i, sum := range []int64{10, 12, 400} {
		rt, rp, err := r.Handle(wire.TypeUploadReq, uploadPayload(profile.ID(i+1), "b", sum), nil)
		if err != nil {
			t.Fatal(err)
		}
		if rt != wire.TypeUploadResp || rp != nil {
			t.Fatalf("upload response = (%d, %v)", rt, rp)
		}
	}
	q := wire.QueryReq{QueryID: 7, ID: 1, TopK: 1}
	rt, rp, err := r.Handle(wire.TypeQueryReq, q.Encode(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rt != wire.TypeQueryResp {
		t.Fatalf("query response type = %d", rt)
	}
	resp, err := wire.DecodeQueryResp(rp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.QueryID != 7 {
		t.Errorf("QueryID = %d, want 7", resp.QueryID)
	}
	if len(resp.Results) != 1 || resp.Results[0].ID != 2 {
		t.Errorf("results = %+v, want nearest neighbor 2", resp.Results)
	}
	if got := m.Uploads.Load(); got != 3 {
		t.Errorf("uploads counter = %d, want 3", got)
	}
	if got := m.Matches.Load(); got != 1 {
		t.Errorf("matches counter = %d, want 1", got)
	}
	for name, g := range map[string]int64{
		"uploads": m.UploadsInFlight.Load(),
		"matches": m.MatchesInFlight.Load(),
	} {
		if g != 0 {
			t.Errorf("in-flight gauge %s = %d after completion, want 0", name, g)
		}
	}
}

func TestQueryCapsTopK(t *testing.T) {
	r := testRegistry(t, Deps{MaxTopK: 2})
	for i := 1; i <= 6; i++ {
		if _, _, err := r.Handle(wire.TypeUploadReq, uploadPayload(profile.ID(i), "b", int64(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	q := wire.QueryReq{QueryID: 1, ID: 1, TopK: 5}
	_, rp, err := r.Handle(wire.TypeQueryReq, q.Encode(), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeQueryResp(rp)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Errorf("got %d results, want MaxTopK=2", len(resp.Results))
	}
}

func TestUnknownTypeRejected(t *testing.T) {
	r := testRegistry(t, Deps{})
	if _, _, err := r.Handle(wire.MsgType(200), nil, nil); !errors.Is(err, wire.ErrBadType) {
		t.Errorf("unknown type: err = %v, want ErrBadType", err)
	}
}

func TestInvalidUploadRejectedBeforeApply(t *testing.T) {
	store := match.NewServer()
	r := testRegistry(t, Deps{Store: store})
	req := wire.UploadReq{ID: 0, KeyHash: []byte("b"), CtBits: 48, NumAttrs: 1,
		Chain: (&chain.Chain{Cts: []*big.Int{big.NewInt(1)}, CtBits: 48}).Bytes(), Auth: []byte{1}}
	if _, _, err := r.Handle(wire.TypeUploadReq, req.Encode(), nil); err == nil {
		t.Fatal("zero-ID upload accepted")
	}
	if store.NumUsers() != 0 {
		t.Error("invalid upload reached the store")
	}
}

// recordingJournal counts handler interactions so tests can assert the
// journal-before-apply contract without a real WAL.
type recordingJournal struct {
	begins, releases int
	uploads, removes int
	batches          int
	fail             bool
}

func (j *recordingJournal) Begin() func() {
	j.begins++
	return func() { j.releases++ }
}

func (j *recordingJournal) AppendUploadBatch(reqs []*wire.UploadReq) error {
	if j.fail {
		return errors.New("journal down")
	}
	j.batches++
	j.uploads += len(reqs)
	return nil
}

func (j *recordingJournal) AppendRemove(profile.ID) error {
	if j.fail {
		return errors.New("journal down")
	}
	j.removes++
	return nil
}

func TestMutationsJournaledBeforeApply(t *testing.T) {
	j := &recordingJournal{}
	store := match.NewServer()
	r := testRegistry(t, Deps{Store: store, Journal: j})
	if _, _, err := r.Handle(wire.TypeUploadReq, uploadPayload(1, "b", 5), nil); err != nil {
		t.Fatal(err)
	}
	rm := wire.RemoveReq{ID: 1}
	if _, _, err := r.Handle(wire.TypeRemoveReq, rm.Encode(), nil); err != nil {
		t.Fatal(err)
	}
	if j.uploads != 1 || j.removes != 1 {
		t.Errorf("journal saw %d uploads, %d removes; want 1 and 1", j.uploads, j.removes)
	}
	if j.begins != 2 || j.releases != 2 {
		t.Errorf("begin/release = %d/%d, want 2/2 (barrier must bracket every mutation)", j.begins, j.releases)
	}
	if store.NumUsers() != 0 {
		t.Error("remove not applied")
	}
}

func TestJournalFailureAbortsApply(t *testing.T) {
	j := &recordingJournal{fail: true}
	store := match.NewServer()
	r := testRegistry(t, Deps{Store: store, Journal: j})
	if _, _, err := r.Handle(wire.TypeUploadReq, uploadPayload(1, "b", 5), nil); err == nil {
		t.Fatal("upload acked despite journal failure")
	}
	if store.NumUsers() != 0 {
		t.Error("unjournaled upload reached the store")
	}
}

func TestUploadBatchMixedValidity(t *testing.T) {
	j := &recordingJournal{}
	m := metrics.New()
	store := match.NewServer()
	r := testRegistry(t, Deps{Store: store, Journal: j, Metrics: m})
	batch := wire.UploadBatchReq{Entries: []wire.UploadReq{
		{ID: 1, KeyHash: []byte("b"), CtBits: 48, NumAttrs: 1,
			Chain: (&chain.Chain{Cts: []*big.Int{big.NewInt(3)}, CtBits: 48}).Bytes(), Auth: []byte{1}},
		{ID: 0, KeyHash: []byte("b"), CtBits: 48, NumAttrs: 1, // invalid: zero ID
			Chain: (&chain.Chain{Cts: []*big.Int{big.NewInt(4)}, CtBits: 48}).Bytes(), Auth: []byte{1}},
	}}
	rt, rp, err := r.Handle(wire.TypeUploadBatchReq, batch.Encode(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rt != wire.TypeUploadBatchResp {
		t.Fatalf("response type = %d", rt)
	}
	resp, err := wire.DecodeUploadBatchResp(rp)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Status) != 2 || resp.Status[0] != "" || resp.Status[1] == "" {
		t.Errorf("statuses = %q, want [ok, rejection]", resp.Status)
	}
	if store.NumUsers() != 1 {
		t.Errorf("store has %d users, want 1", store.NumUsers())
	}
	if j.uploads != 1 || j.batches != 1 {
		t.Errorf("journal saw %d uploads in %d batches, want 1 in 1", j.uploads, j.batches)
	}
	if got := m.Uploads.Load(); got != 1 {
		t.Errorf("uploads counter = %d, want 1 (only applied entries count)", got)
	}
	if got := m.UploadBatches.Load(); got != 1 {
		t.Errorf("upload_batches counter = %d, want 1", got)
	}
}

func TestOPRFBatchCapped(t *testing.T) {
	r := testRegistry(t, Deps{})
	xs := make([]*big.Int, wire.MaxOPRFBatch+1)
	for i := range xs {
		xs[i] = big.NewInt(int64(i + 1))
	}
	req := wire.OPRFBatchReq{Xs: xs}
	if _, _, err := r.Handle(wire.TypeOPRFBatchReq, req.AppendEncode(nil), nil); err == nil {
		t.Error("oversized OPRF batch accepted")
	}
}

func TestOPRFKeyAndEvaluate(t *testing.T) {
	r := testRegistry(t, Deps{})
	_, rp, err := r.Handle(wire.TypeOPRFKeyReq, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	keyResp, err := wire.DecodeOPRFKeyResp(rp)
	if err != nil {
		t.Fatal(err)
	}
	if keyResp.N.Cmp(testOPRF(t).PublicKey().N) != 0 {
		t.Error("public key modulus mismatch")
	}
	x := big.NewInt(0xbeef)
	req := wire.OPRFBatchReq{Xs: []*big.Int{x}}
	_, rp, err = r.Handle(wire.TypeOPRFBatchReq, req.AppendEncode(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeOPRFBatchResp(rp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := testOPRF(t).Evaluate(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Ys) != 1 || resp.Ys[0].Cmp(want) != 0 {
		t.Error("network evaluation disagrees with direct evaluation")
	}
}
