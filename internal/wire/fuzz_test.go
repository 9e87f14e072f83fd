// Native Go fuzz targets for the payload decoders (the frame's own
// targets, FuzzFrameV2 and FuzzReadFrame, are in v2_test.go): every
// decoder must reject malformed input with an error — never panic, never
// over-read — and every accepted input must survive an encode/decode round
// trip unchanged. Run with `go test -fuzz=FuzzDecodeUploadReq
// ./internal/wire` (etc.); the f.Add seeds are checked in so plain
// `go test` exercises them too.
package wire

import (
	"bytes"
	"math/big"
	"testing"

	"smatch/internal/match"
	"smatch/internal/profile"
)

func FuzzDecodeUploadReq(f *testing.F) {
	seed := UploadReq{
		ID: 7, KeyHash: []byte("kh"), CtBits: 48, NumAttrs: 2,
		Chain: make([]byte, 12), Auth: []byte("auth"),
	}
	f.Add(seed.Encode())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1})

	f.Fuzz(func(t *testing.T, payload []byte) {
		u, err := DecodeUploadReq(payload)
		if err != nil {
			return
		}
		// Decoded requests re-encode to the exact input (the codec has no
		// redundant representations).
		if !bytes.Equal(u.Encode(), payload) {
			t.Fatalf("re-encode differs from accepted payload")
		}
		// Building the store record must never panic, whatever the
		// embedded chain bytes are.
		_, _ = recordOf(u)
	})
}

func FuzzDecodeQueryReq(f *testing.F) {
	knn := QueryReq{QueryID: 1, Timestamp: 2, ID: 3, TopK: 4, Mode: ModeKNN}
	maxd := QueryReq{QueryID: 9, ID: 3, Mode: ModeMaxDistance, MaxDist: big.NewInt(77)}
	f.Add(knn.Encode())
	f.Add(maxd.Encode())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		q, err := DecodeQueryReq(payload)
		if err != nil {
			return
		}
		q2, err := DecodeQueryReq(q.Encode())
		if err != nil {
			t.Fatalf("re-decoding own encoding: %v", err)
		}
		same := q2.QueryID == q.QueryID && q2.Timestamp == q.Timestamp &&
			q2.ID == q.ID && q2.TopK == q.TopK && q2.Mode == q.Mode &&
			(q2.MaxDist == nil) == (q.MaxDist == nil) &&
			(q.MaxDist == nil || q.MaxDist.Cmp(q2.MaxDist) == 0)
		if !same {
			t.Fatalf("round trip changed query: %+v -> %+v", q, q2)
		}
	})
}

func FuzzDecodeQueryResp(f *testing.F) {
	resp := QueryResp{QueryID: 5, Timestamp: 6, Results: []match.Result{
		{ID: profile.ID(1), Auth: []byte("a1")},
		{ID: profile.ID(2), Auth: nil},
	}}
	f.Add(resp.AppendEncode(nil))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := DecodeQueryResp(payload)
		if err != nil {
			return
		}
		r2, err := DecodeQueryResp(r.AppendEncode(nil))
		if err != nil {
			t.Fatalf("re-decoding own encoding: %v", err)
		}
		if r2.QueryID != r.QueryID || r2.Timestamp != r.Timestamp || len(r2.Results) != len(r.Results) {
			t.Fatalf("round trip changed response")
		}
	})
}

func FuzzDecodeOPRFBatchReq(f *testing.F) {
	req := OPRFBatchReq{Xs: []*big.Int{big.NewInt(12345), big.NewInt(0)}}
	f.Add(req.AppendEncode(nil))
	f.Add([]byte{0xff, 0xff}) // claims 65535 elements, carries none

	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := DecodeOPRFBatchReq(payload)
		if err != nil {
			return
		}
		r2, err := DecodeOPRFBatchReq(r.AppendEncode(nil))
		if err != nil {
			t.Fatalf("re-decoding own encoding: %v", err)
		}
		if len(r2.Xs) != len(r.Xs) {
			t.Fatalf("round trip changed batch size: %d -> %d", len(r.Xs), len(r2.Xs))
		}
		for i := range r.Xs {
			if r.Xs[i].Cmp(r2.Xs[i]) != 0 {
				t.Fatalf("round trip changed element %d", i)
			}
		}
	})
}
