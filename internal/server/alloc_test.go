//go:build !race

// Allocation regression gates for the pipelined hot path: processJob —
// pooled buffer in, complete frame out — must stay within a committed
// allocs/op ceiling for the highest-volume operations. These ceilings are
// deliberately above the measured steady state (residual allocations are
// decode-side request structs, the store's new record, journal buffers
// and result slices) but far below the numbers of the paths they replaced;
// a regression that reintroduces per-frame buffer churn or a big.Int
// round trip on upload blows through them immediately. Excluded under
// -race (instrumentation allocates) and coverage.
package server

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"smatch/internal/broker"
	"smatch/internal/profile"
	"smatch/internal/wal"
	"smatch/internal/wire"
)

const (
	// queryAllocCeiling bounds allocs/op for a pipelined TopK=5 query over
	// an 8-entry bucket, measured end-to-end through processJob.
	queryAllocCeiling = 12
	// uploadBatchAllocCeiling bounds allocs/op for a 16-entry pipelined
	// upload batch (steady-state re-upload of existing IDs).
	uploadBatchAllocCeiling = 130
	// journaledUploadAllocCeiling bounds allocs/op for one bench-shaped
	// journaled upload into a subscribed bucket.
	journaledUploadAllocCeiling = 24
	// journaledBatchEntryAllocCeiling bounds allocs per entry of a
	// bench-shaped journaled 64-entry batch into a subscribed bucket: the
	// measured 6.2 plus one. The WAL enqueues the batch as one call, so a
	// per-record pending or channel would push it past this.
	journaledBatchEntryAllocCeiling = 7.2
)

func skipIfCover(t *testing.T) {
	t.Helper()
	if testing.CoverMode() != "" {
		t.Skip("allocation counts are perturbed by coverage instrumentation")
	}
}

// allocServer builds a serving-free server with n profiles in one bucket.
func allocServer(t *testing.T, n int) *Server {
	t.Helper()
	srv, err := New(Config{OPRF: testOPRF(t)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if err := srv.Store().Upload(matchEntryForTest(uint32(i), "alloc-bucket", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return srv
}

func measureJob(t *testing.T, srv *Server, jt wire.MsgType, payload []byte, wantType wire.MsgType) float64 {
	t.Helper()
	return measureJobs(t, srv, jt, [][]byte{payload}, wantType)
}

// measureJobs is measureJob cycling through several payloads, one per run.
func measureJobs(t *testing.T, srv *Server, jt wire.MsgType, payloads [][]byte, wantType wire.MsgType) float64 {
	t.Helper()
	var n int
	run := func() {
		resp := srv.processJob(pipelineJob{id: 1, t: jt, payload: payloads[n%len(payloads)]})
		n++
		if wire.MsgType(resp.frame[4]) != wantType {
			panic(fmt.Sprintf("response type %d, want %d: %q", resp.frame[4], wantType, resp.frame))
		}
		putBuf(resp.buf) // the writer's release, after the frame is done with
	}
	for i := 0; i < 16; i++ {
		run() // reach buffer-growth steady state before counting
	}
	return testing.AllocsPerRun(200, run)
}

// benchShapedReq draws an upload of the shape bench/ sends: 17 64-bit
// ciphertexts, a 32-byte key hash and a 336-byte auth blob.
func benchShapedReq(rng *rand.Rand, id profile.ID, keyHash []byte) wire.UploadReq {
	ch := make([]byte, 17*8)
	rng.Read(ch)
	auth := make([]byte, 336)
	rng.Read(auth)
	return wire.UploadReq{ID: id, KeyHash: keyHash, CtBits: 64, NumAttrs: 17, Chain: ch, Auth: auth}
}

// journaledSubscribedServer builds a server journaling to a no-sync WAL.
// The bucket under keyHash already holds 64 users outside the measured
// ID range, and the broker holds a standing probe on it wide enough that
// every upload into the bucket qualifies.
func journaledSubscribedServer(t *testing.T, rng *rand.Rand, keyHash []byte) *Server {
	t.Helper()
	w, err := wal.Open(wal.Options{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	j := NewJournal(w)
	t.Cleanup(func() { j.Close() })
	srv, err := New(Config{OPRF: testOPRF(t), Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	for id := profile.ID(1000); id < 1064; id++ {
		req := benchShapedReq(rng, id, keyHash)
		resp := srv.processJob(pipelineJob{id: 1, t: wire.TypeUploadReq, payload: req.Encode()})
		if wire.MsgType(resp.frame[4]) != wire.TypeUploadResp {
			t.Fatalf("preloading user %d: %q", id, resp.frame)
		}
		putBuf(resp.buf)
	}
	probe := broker.Probe{KeyHash: keyHash, OrderSum: big.NewInt(0), MaxDist: new(big.Int).Lsh(big.NewInt(1), 80)}
	sub, err := srv.broker.Subscribe(probe, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.broker.Unsubscribe(sub) })
	return srv
}

func TestPipelinedQueryAllocCeiling(t *testing.T) {
	skipIfCover(t)
	srv := allocServer(t, 8)
	q := wire.QueryReq{QueryID: 1, ID: 1, TopK: 5}
	allocs := measureJob(t, srv, wire.TypeQueryReq, q.Encode(), wire.TypeQueryResp)
	t.Logf("pipelined query: %.1f allocs/op (ceiling %d)", allocs, queryAllocCeiling)
	if allocs > queryAllocCeiling {
		t.Errorf("pipelined query allocates %.1f/op, ceiling is %d", allocs, queryAllocCeiling)
	}
}

func TestPipelinedUploadBatchAllocCeiling(t *testing.T) {
	skipIfCover(t)
	srv := allocServer(t, 0)
	batch := wire.UploadBatchReq{}
	for i := 1; i <= 16; i++ {
		batch.Entries = append(batch.Entries, uploadReqForTest(uint32(i), "alloc-bucket", int64(i)))
	}
	allocs := measureJob(t, srv, wire.TypeUploadBatchReq, batch.Encode(), wire.TypeUploadBatchResp)
	t.Logf("pipelined upload-batch(16): %.1f allocs/op (ceiling %d)", allocs, uploadBatchAllocCeiling)
	if allocs > uploadBatchAllocCeiling {
		t.Errorf("pipelined upload-batch allocates %.1f/op, ceiling is %d", allocs, uploadBatchAllocCeiling)
	}
}

// TestJournaledUploadAllocCeiling re-uploads one bench-shaped user at two
// alternating positions, so every upload is journaled, filed and
// published to a subscriber as a fresh match.
func TestJournaledUploadAllocCeiling(t *testing.T) {
	skipIfCover(t)
	rng := rand.New(rand.NewSource(11))
	keyHash := make([]byte, 32)
	rng.Read(keyHash)
	srv := journaledSubscribedServer(t, rng, keyHash)
	var payloads [][]byte
	for range 2 {
		req := benchShapedReq(rng, 7, keyHash)
		payloads = append(payloads, req.Encode())
	}
	allocs := measureJobs(t, srv, wire.TypeUploadReq, payloads, wire.TypeUploadResp)
	t.Logf("journaled upload: %.1f allocs/op (ceiling %d)", allocs, journaledUploadAllocCeiling)
	if allocs > journaledUploadAllocCeiling {
		t.Errorf("journaled upload allocates %.1f/op, ceiling is %d", allocs, journaledUploadAllocCeiling)
	}
}

// TestJournaledUploadBatchAllocCeiling is the 64-entry batch form of
// TestJournaledUploadAllocCeiling, gated per entry.
func TestJournaledUploadBatchAllocCeiling(t *testing.T) {
	skipIfCover(t)
	const entries = 64
	rng := rand.New(rand.NewSource(12))
	keyHash := make([]byte, 32)
	rng.Read(keyHash)
	srv := journaledSubscribedServer(t, rng, keyHash)
	var payloads [][]byte
	for range 2 {
		batch := wire.UploadBatchReq{}
		for i := 1; i <= entries; i++ {
			batch.Entries = append(batch.Entries, benchShapedReq(rng, profile.ID(i), keyHash))
		}
		payloads = append(payloads, batch.Encode())
	}
	perEntry := measureJobs(t, srv, wire.TypeUploadBatchReq, payloads, wire.TypeUploadBatchResp) / entries
	t.Logf("journaled upload-batch(%d): %.1f allocs per entry (ceiling %.1f)", entries, perEntry, journaledBatchEntryAllocCeiling)
	if perEntry > journaledBatchEntryAllocCeiling {
		t.Errorf("journaled upload-batch allocates %.1f per entry, ceiling is %.1f", perEntry, journaledBatchEntryAllocCeiling)
	}
}
