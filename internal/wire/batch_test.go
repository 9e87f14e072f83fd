package wire

import (
	"math/big"
	"testing"
)

func TestOPRFBatchRoundTrip(t *testing.T) {
	req := &OPRFBatchReq{Xs: []*big.Int{
		big.NewInt(7),
		new(big.Int).Lsh(big.NewInt(1), 1000),
		big.NewInt(0),
	}}
	got, err := DecodeOPRFBatchReq(req.AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Xs) != 3 {
		t.Fatalf("got %d elements", len(got.Xs))
	}
	for i := range req.Xs {
		if got.Xs[i].Cmp(req.Xs[i]) != 0 {
			t.Errorf("element %d mangled", i)
		}
	}

	resp := &OPRFBatchResp{Ys: req.Xs}
	gotResp, err := DecodeOPRFBatchResp(resp.AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	for i := range resp.Ys {
		if gotResp.Ys[i].Cmp(resp.Ys[i]) != 0 {
			t.Errorf("response element %d mangled", i)
		}
	}
}

func TestOPRFBatchEmpty(t *testing.T) {
	req := &OPRFBatchReq{}
	got, err := DecodeOPRFBatchReq(req.AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Xs) != 0 {
		t.Errorf("empty batch decoded with %d elements", len(got.Xs))
	}
}

func TestOPRFBatchTruncationRejected(t *testing.T) {
	full := (&OPRFBatchReq{Xs: []*big.Int{big.NewInt(5), big.NewInt(9)}}).AppendEncode(nil)
	for n := 0; n < len(full); n++ {
		if _, err := DecodeOPRFBatchReq(full[:n]); err == nil {
			t.Fatalf("prefix of %d bytes accepted", n)
		}
	}
	if _, err := DecodeOPRFBatchReq(append(full, 0xaa)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestOPRFBatchLyingCount(t *testing.T) {
	// Header claims 5 elements but carries 1: must fail cleanly.
	var e encoder
	e.u16(5)
	e.bytes(big.NewInt(3).Bytes())
	if _, err := DecodeOPRFBatchReq(e.buf); err == nil {
		t.Error("lying element count accepted")
	}
}

// TestOPRFBatchLimit: both directions decode MaxOPRFBatch elements and
// refuse one more, before allocating for the claimed count.
func TestOPRFBatchLimit(t *testing.T) {
	xs := make([]*big.Int, MaxOPRFBatch+1)
	for i := range xs {
		xs[i] = big.NewInt(int64(i + 2))
	}
	if _, err := DecodeOPRFBatchReq((&OPRFBatchReq{Xs: xs[:MaxOPRFBatch]}).AppendEncode(nil)); err != nil {
		t.Errorf("max-size request: %v", err)
	}
	if _, err := DecodeOPRFBatchResp((&OPRFBatchResp{Ys: xs[:MaxOPRFBatch]}).AppendEncode(nil)); err != nil {
		t.Errorf("max-size response: %v", err)
	}
	if _, err := DecodeOPRFBatchReq((&OPRFBatchReq{Xs: xs}).AppendEncode(nil)); err == nil {
		t.Error("oversized request accepted")
	}
	if _, err := DecodeOPRFBatchResp((&OPRFBatchResp{Ys: xs}).AppendEncode(nil)); err == nil {
		t.Error("oversized response accepted")
	}
}

func TestQueryReqModeRoundTrip(t *testing.T) {
	knn := &QueryReq{QueryID: 1, Timestamp: 2, ID: 3, TopK: 4, Mode: ModeKNN}
	got, err := DecodeQueryReq(knn.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode != ModeKNN || got.MaxDist != nil {
		t.Errorf("kNN round trip: mode=%d maxDist=%v", got.Mode, got.MaxDist)
	}

	md := &QueryReq{QueryID: 9, ID: 3, Mode: ModeMaxDistance, MaxDist: big.NewInt(123456)}
	got, err = DecodeQueryReq(md.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode != ModeMaxDistance || got.MaxDist.Int64() != 123456 {
		t.Errorf("max-distance round trip: mode=%d maxDist=%v", got.Mode, got.MaxDist)
	}
}

func TestQueryReqUnknownModeRejected(t *testing.T) {
	req := &QueryReq{QueryID: 1, ID: 2, Mode: QueryMode(7)}
	if _, err := DecodeQueryReq(req.Encode()); err == nil {
		t.Error("unknown query mode accepted")
	}
}
