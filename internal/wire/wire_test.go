package wire

import (
	"bytes"
	"errors"
	"math/big"
	"testing"

	"smatch/internal/match"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello smatch")
	if err := WriteFrame(&buf, TypeQueryReq, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypeQueryReq || !bytes.Equal(got, payload) {
		t.Errorf("round trip: type=%d payload=%q", typ, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypeUploadResp, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypeUploadResp || len(got) != 0 {
		t.Error("empty frame mangled")
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypeUploadReq, make([]byte, MaxFrameSize+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized write: err = %v", err)
	}
	// A forged oversized header must be rejected on read.
	buf.Reset()
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, byte(TypeUploadReq)})
	if _, _, err := ReadFrame(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized read: err = %v", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypeQueryReq, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:8]
	if _, _, err := ReadFrame(bytes.NewReader(short)); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestUploadReqRoundTrip(t *testing.T) {
	req := &UploadReq{
		ID:       42,
		KeyHash:  bytes.Repeat([]byte{7}, 32),
		CtBits:   64,
		NumAttrs: 6,
		Chain:    bytes.Repeat([]byte{9}, 6*8),
		Auth:     []byte("auth-blob"),
	}
	enc := req.Encode()
	if len(enc) != req.EncodedLen() {
		t.Errorf("EncodedLen = %d, encoding is %d bytes", req.EncodedLen(), len(enc))
	}
	got, err := DecodeUploadReq(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != req.ID || got.CtBits != req.CtBits || got.NumAttrs != req.NumAttrs {
		t.Errorf("header fields mangled: %+v", got)
	}
	if !bytes.Equal(got.KeyHash, req.KeyHash) || !bytes.Equal(got.Chain, req.Chain) || !bytes.Equal(got.Auth, req.Auth) {
		t.Error("byte fields mangled")
	}
}

// recordOf builds the store record an upload request carries.
func recordOf(u *UploadReq) (match.Record, error) {
	return match.NewRecord(u.ID, u.KeyHash, uint(u.CtBits), int(u.NumAttrs), u.Chain, u.Auth)
}

// TestUploadReqToRecord files an upload request's record and requires
// UploadReqOf, applied to what the store hands back, to recreate the
// request exactly.
func TestUploadReqToRecord(t *testing.T) {
	req := &UploadReq{
		ID:       7,
		KeyHash:  []byte("kh"),
		CtBits:   64,
		NumAttrs: 2,
		Chain:    bytes.Repeat([]byte{1}, 16),
		Auth:     []byte("a"),
	}
	rec, err := recordOf(req)
	if err != nil {
		t.Fatal(err)
	}
	store := match.NewServer()
	store.Put(rec)
	var back UploadReq
	if err := store.ForEachEntry(func(e match.Entry) error {
		if e.Chain.NumAttrs() != 2 {
			t.Errorf("stored chain attrs = %d", e.Chain.NumAttrs())
		}
		back = UploadReqOf(e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Encode(), req.Encode()) {
		t.Errorf("UploadReqOf(stored entry) = %+v, want %+v", back, *req)
	}
	// Chain length mismatch is rejected.
	req.NumAttrs = 3
	if _, err := recordOf(req); err == nil {
		t.Error("inconsistent chain length accepted")
	}
}

func TestQueryReqRoundTrip(t *testing.T) {
	req := &QueryReq{QueryID: 99, Timestamp: 1234567890, ID: 5, TopK: 10}
	got, err := DecodeQueryReq(req.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *req {
		t.Errorf("round trip: %+v != %+v", got, req)
	}
}

func TestQueryRespRoundTrip(t *testing.T) {
	resp := &QueryResp{
		QueryID:   3,
		Timestamp: 42,
		Results: []match.Result{
			{ID: 1, Auth: []byte("a1")},
			{ID: 2, Auth: []byte("a2-longer")},
			{ID: 3, Auth: nil},
		},
	}
	got, err := DecodeQueryResp(resp.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.QueryID != resp.QueryID || len(got.Results) != 3 {
		t.Fatalf("round trip header: %+v", got)
	}
	for i := range resp.Results {
		if got.Results[i].ID != resp.Results[i].ID || !bytes.Equal(got.Results[i].Auth, resp.Results[i].Auth) {
			t.Errorf("result %d mangled", i)
		}
	}
}

func TestQueryRespEmptyResults(t *testing.T) {
	resp := &QueryResp{QueryID: 1, Timestamp: 2}
	got, err := DecodeQueryResp(resp.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 0 {
		t.Errorf("empty results decoded as %d", len(got.Results))
	}
}

func TestOPRFRoundTrips(t *testing.T) {
	x := new(big.Int).Lsh(big.NewInt(12345), 512)
	req := &OPRFReq{X: x}
	gotReq, err := DecodeOPRFReq(req.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if gotReq.X.Cmp(x) != 0 {
		t.Error("OPRF request mangled")
	}
	resp := &OPRFResp{Y: big.NewInt(777)}
	gotResp, err := DecodeOPRFResp(resp.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if gotResp.Y.Int64() != 777 {
		t.Error("OPRF response mangled")
	}
}

func TestErrorMsgRoundTrip(t *testing.T) {
	msg := &ErrorMsg{Text: "match: unknown user"}
	got, err := DecodeErrorMsg(msg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Text != msg.Text {
		t.Errorf("Text = %q", got.Text)
	}
}

func TestDecodersRejectTruncation(t *testing.T) {
	// Every decoder must fail cleanly on every prefix of a valid payload.
	full := (&UploadReq{ID: 1, KeyHash: []byte("abc"), CtBits: 8, NumAttrs: 1, Chain: []byte{1}, Auth: []byte("x")}).Encode()
	for n := 0; n < len(full); n++ {
		if _, err := DecodeUploadReq(full[:n]); err == nil {
			t.Fatalf("UploadReq prefix of %d bytes accepted", n)
		}
	}
	fullQ := (&QueryReq{QueryID: 1, Timestamp: 2, ID: 3, TopK: 4}).Encode()
	for n := 0; n < len(fullQ); n++ {
		if _, err := DecodeQueryReq(fullQ[:n]); err == nil {
			t.Fatalf("QueryReq prefix of %d bytes accepted", n)
		}
	}
}

func TestDecodersRejectTrailingGarbage(t *testing.T) {
	q := (&QueryReq{QueryID: 1, Timestamp: 2, ID: 3, TopK: 4}).Encode()
	if _, err := DecodeQueryReq(append(q, 0xff)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestDecoderRejectsLyingLengthPrefix(t *testing.T) {
	// A bytes field claiming more data than present must not panic.
	var e encoder
	e.u32(1)        // ID
	e.u32(0xffffff) // key-hash length prefix lying
	payload := e.buf
	if _, err := DecodeUploadReq(payload); err == nil {
		t.Error("lying length prefix accepted")
	}
}
