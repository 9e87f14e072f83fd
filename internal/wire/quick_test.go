package wire

import (
	"bytes"
	"math/big"
	"testing"
	"testing/quick"

	"smatch/internal/match"
	"smatch/internal/profile"
)

// Property-based round trips: for any field values, encode/decode is the
// identity and never panics.

func TestQuickUploadReqRoundTrip(t *testing.T) {
	prop := func(id uint32, keyHash, chainBytes, auth []byte, ctBits uint32, numAttrs uint16) bool {
		req := &UploadReq{
			ID:       profile.ID(id),
			KeyHash:  keyHash,
			CtBits:   ctBits,
			NumAttrs: numAttrs,
			Chain:    chainBytes,
			Auth:     auth,
		}
		got, err := DecodeUploadReq(req.Encode())
		if err != nil {
			return false
		}
		return got.ID == req.ID &&
			bytes.Equal(got.KeyHash, req.KeyHash) &&
			got.CtBits == req.CtBits &&
			got.NumAttrs == req.NumAttrs &&
			bytes.Equal(got.Chain, req.Chain) &&
			bytes.Equal(got.Auth, req.Auth)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickQueryReqRoundTrip(t *testing.T) {
	prop := func(qid uint64, ts int64, id uint32, topK uint16, maxDist uint64, maxMode bool) bool {
		req := &QueryReq{QueryID: qid, Timestamp: ts, ID: profile.ID(id), TopK: topK}
		if maxMode {
			req.Mode = ModeMaxDistance
			req.MaxDist = new(big.Int).SetUint64(maxDist)
		}
		got, err := DecodeQueryReq(req.Encode())
		if err != nil {
			return false
		}
		if got.QueryID != req.QueryID || got.Timestamp != req.Timestamp ||
			got.ID != req.ID || got.TopK != req.TopK || got.Mode != req.Mode {
			return false
		}
		if maxMode {
			return got.MaxDist.Cmp(req.MaxDist) == 0
		}
		return got.MaxDist == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickQueryRespRoundTrip(t *testing.T) {
	prop := func(qid uint64, ts int64, ids []uint32, auths [][]byte) bool {
		n := len(ids)
		if len(auths) < n {
			n = len(auths)
		}
		if n > 200 {
			n = 200
		}
		resp := &QueryResp{QueryID: qid, Timestamp: ts}
		for i := 0; i < n; i++ {
			resp.Results = append(resp.Results, match.Result{ID: profile.ID(ids[i]), Auth: auths[i]})
		}
		got, err := DecodeQueryResp(resp.AppendEncode(nil))
		if err != nil {
			return false
		}
		if len(got.Results) != len(resp.Results) {
			return false
		}
		for i := range resp.Results {
			if got.Results[i].ID != resp.Results[i].ID ||
				!bytes.Equal(got.Results[i].Auth, resp.Results[i].Auth) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickDecodersNeverPanicOnRandomBytes(t *testing.T) {
	// Random byte soup: every decoder must error or succeed, never panic.
	prop := func(payload []byte) bool {
		_, _ = DecodeUploadReq(payload)
		_, _ = DecodeQueryReq(payload)
		_, _ = DecodeQueryResp(payload)
		_, _ = DecodeOPRFBatchReq(payload)
		_, _ = DecodeOPRFBatchResp(payload)
		_, _ = DecodeOPRFKeyResp(payload)
		_, _ = DecodeErrorMsg(payload)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickFrameRoundTrip(t *testing.T) {
	prop := func(id uint64, typ uint8, payload []byte) bool {
		var buf bytes.Buffer
		if err := WriteFrameV2(&buf, id, MsgType(typ), payload); err != nil {
			return false
		}
		gotID, gotType, gotPayload, err := ReadFrameV2(&buf)
		if err != nil {
			return false
		}
		return gotID == id && gotType == MsgType(typ) && bytes.Equal(gotPayload, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
