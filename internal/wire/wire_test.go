package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/big"
	"testing"

	"smatch/internal/match"
)

// firstFrameLimit is the payload bound a server reads a connection's first
// frame under, before any hello (the server package's maxFirstPayload).
const firstFrameLimit = 1 << 10

// The hello exchange travels in the ordinary envelope under request ID 0:
// the client writes it with WriteFrameV2, the server builds its ack or
// refusal in place with BeginFrameV2/FinishFrameV2. Both must give the
// same bytes, and each frame must read back through the bounded first read.
func TestFrameRoundTrip(t *testing.T) {
	hello := &Hello{Version: ProtocolV2, Depth: 32}
	refusal := &ErrorMsg{Text: "connection refused: the first frame must be a hello"}
	for _, c := range []struct {
		t       MsgType
		payload []byte
	}{
		{TypeHello, hello.AppendEncode(nil)},
		{TypeHelloResp, hello.AppendEncode(nil)},
		{TypeError, refusal.AppendEncode(nil)},
	} {
		var written bytes.Buffer
		if err := WriteFrameV2(&written, 0, c.t, c.payload); err != nil {
			t.Fatal(err)
		}
		built := append(BeginFrameV2(nil), c.payload...)
		if err := FinishFrameV2(built, 0, 0, c.t); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(built, written.Bytes()) {
			t.Errorf("type %d: in-place frame %x, WriteFrameV2 frame %x", c.t, built, written.Bytes())
		}
		id, typ, got, err := ReadFrameV2Max(&written, firstFrameLimit)
		if err != nil {
			t.Fatalf("type %d: %v", c.t, err)
		}
		if id != 0 || typ != c.t || !bytes.Equal(got, c.payload) {
			t.Errorf("round trip: id=%d type=%d payload=%x", id, typ, got)
		}
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	// A zero bound still admits the empty payload.
	var buf bytes.Buffer
	if err := WriteFrameV2(&buf, 7, TypeUploadResp, nil); err != nil {
		t.Fatal(err)
	}
	id, typ, got, err := ReadFrameV2Max(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 || typ != TypeUploadResp || len(got) != 0 {
		t.Error("empty frame mangled")
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameV2(&buf, 0, TypeHello, make([]byte, firstFrameLimit)); err != nil {
		t.Fatal(err)
	}
	if _, _, got, err := ReadFrameV2Max(&buf, firstFrameLimit); err != nil || len(got) != firstFrameLimit {
		t.Errorf("payload at the bound: len %d, err = %v", len(got), err)
	}
	// A header claiming more is refused on the header alone: no payload
	// follows it, yet the error is ErrFrameTooLarge rather than EOF, and
	// the bytes after the header stay unread.
	for _, claim := range []uint32{firstFrameLimit + 1, MaxFrameSize} {
		frame := make([]byte, FrameHeaderLenV2)
		binary.BigEndian.PutUint32(frame, claim)
		frame[4] = byte(TypeHello)
		r := bytes.NewReader(append(frame, "abc"...))
		if _, _, _, err := ReadFrameV2Max(r, firstFrameLimit); !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("claim %d: err = %v, want ErrFrameTooLarge", claim, err)
		}
		if r.Len() != 3 {
			t.Errorf("claim %d: read %d bytes past the header", claim, 3-r.Len())
		}
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameV2(&buf, 1, TypeQueryReq, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	// Cut inside the header and inside the payload.
	for _, n := range []int{8, FrameHeaderLenV2 + 4} {
		if _, _, _, err := ReadFrameV2(bytes.NewReader(buf.Bytes()[:n])); err == nil {
			t.Errorf("frame truncated to %d bytes accepted", n)
		}
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
	got, err := DecodeQueryResp(resp.AppendEncode(nil))
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
	got, err := DecodeQueryResp(resp.AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 0 {
		t.Errorf("empty results decoded as %d", len(got.Results))
	}
}

// TestOPRFRoundTrips: a plain key derivation is an OPRF batch of one.
func TestOPRFRoundTrips(t *testing.T) {
	x := new(big.Int).Lsh(big.NewInt(12345), 512)
	req := &OPRFBatchReq{Xs: []*big.Int{x}}
	gotReq, err := DecodeOPRFBatchReq(req.AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotReq.Xs) != 1 || gotReq.Xs[0].Cmp(x) != 0 {
		t.Error("OPRF request mangled")
	}
	resp := &OPRFBatchResp{Ys: []*big.Int{big.NewInt(777)}}
	gotResp, err := DecodeOPRFBatchResp(resp.AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotResp.Ys) != 1 || gotResp.Ys[0].Int64() != 777 {
		t.Error("OPRF response mangled")
	}
}

func TestErrorMsgRoundTrip(t *testing.T) {
	msg := &ErrorMsg{Text: "match: unknown user"}
	got, err := DecodeErrorMsg(msg.AppendEncode(nil))
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
