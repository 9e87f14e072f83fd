package wire

import (
	"bytes"
	"errors"
	"io"
	"math/big"
	"testing"

	"smatch/internal/match"
)

// appendable is every message type's one encoder. The tests below pin
// AppendEncode into a non-empty or dirty buffer to AppendEncode(nil), and
// the four Encode() wrappers the benchmark module calls to it as well.
type appendable interface {
	AppendEncode([]byte) []byte
}

// encodeWrapper is implemented by the request types that keep Encode().
type encodeWrapper interface {
	Encode() []byte
}

// equivalenceCases builds one instance of every converted message type,
// including the nil-big.Int and empty-slice corners the append encoder
// handles specially.
func equivalenceCases() map[string]appendable {
	results := []match.Result{{ID: 7, Auth: []byte("auth-7")}, {ID: 9, Auth: nil}}
	up := UploadReq{ID: 3, KeyHash: []byte("kh"), CtBits: 64, NumAttrs: 2, Chain: []byte{1, 2, 3}, Auth: []byte("a")}
	return map[string]appendable{
		"upload":            &up,
		"upload_empty":      &UploadReq{},
		"upload_batch":      &UploadBatchReq{Entries: []UploadReq{up, {ID: 4}}},
		"upload_batch_nil":  &UploadBatchReq{},
		"upload_batch_resp": &UploadBatchResp{Status: []string{"", "bad entry", ""}},
		"remove":            &RemoveReq{ID: 12},
		"query_knn":         &QueryReq{QueryID: 1, Timestamp: 99, ID: 5, TopK: 10, Mode: ModeKNN},
		"query_maxdist":     &QueryReq{QueryID: 2, ID: 6, Mode: ModeMaxDistance, MaxDist: big.NewInt(1 << 40)},
		"query_nil_dist":    &QueryReq{QueryID: 3, ID: 7, Mode: ModeMaxDistance},
		"query_resp":        &QueryResp{QueryID: 1, Timestamp: 99, Results: results},
		"query_resp_empty":  &QueryResp{QueryID: 2},
		"oprf_batch_one":    &OPRFBatchReq{Xs: []*big.Int{big.NewInt(123456789)}},
		"oprf_batch_zero":   &OPRFBatchReq{Xs: []*big.Int{new(big.Int)}},
		"oprf_resp_one":     &OPRFBatchResp{Ys: []*big.Int{new(big.Int).Lsh(big.NewInt(1), 2047)}},
		"oprf_batch_req":    &OPRFBatchReq{Xs: []*big.Int{big.NewInt(1), new(big.Int), big.NewInt(1 << 60)}},
		"oprf_batch_resp":   &OPRFBatchResp{Ys: []*big.Int{big.NewInt(255), big.NewInt(256)}},
		"oprf_key_resp":     &OPRFKeyResp{N: new(big.Int).SetBytes(bytes.Repeat([]byte{0xab}, 256)), E: 65537},
		"error":             &ErrorMsg{Text: "request failed"},
		"hello":             &Hello{Version: 2, Depth: 16},
		"subscribe":         &SubscribeReq{SubID: 8, KeyHash: []byte("kh"), CtBits: 64, NumAttrs: 1, Chain: []byte{9}, MaxDist: big.NewInt(77)},
		"subscribe_resp":    &SubscribeResp{SubID: 8},
		"unsubscribe":       &UnsubscribeReq{SubID: 8},
		"unsubscribe_resp":  &UnsubscribeResp{SubID: 8},
		"match_notify":      &MatchNotify{SubID: 8, Seq: 4, Dropped: 1, Event: NotifyEventMatch, ID: 3, Auth: []byte("au")},
		"replicate_pull":    &ReplicatePullReq{NodeID: "node-a", AfterLSN: 40, MaxRecords: 512, WaitMS: 100},
		"pull_resp_records": &ReplicatePullResp{LeaderLSN: 50, FirstLSN: 41, Records: [][]byte{{1}, {2, 3}}},
		"pull_resp_snap":    &ReplicatePullResp{Snapshot: true, LeaderLSN: 50, SnapLSN: 44, Snap: []byte("snapshot")},
	}
}

// TestAppendEncodeEquivalence pins the encoders to their fresh-buffer
// output: AppendEncode(prefix) must equal prefix ++ AppendEncode(nil) with
// the prefix bytes untouched — appending to a non-empty buffer catches any
// absolute-offset bug a fresh-buffer test would miss. An Encode() wrapper
// must return the fresh-buffer bytes too.
func TestAppendEncodeEquivalence(t *testing.T) {
	prefixes := [][]byte{nil, {}, []byte("prefix-bytes")}
	for name, msg := range equivalenceCases() {
		legacy := msg.AppendEncode(nil)
		if w, ok := msg.(encodeWrapper); ok && !bytes.Equal(w.Encode(), legacy) {
			t.Errorf("%s: Encode() = %x, want %x", name, w.Encode(), legacy)
		}
		for _, prefix := range prefixes {
			buf := append([]byte(nil), prefix...)
			got := msg.AppendEncode(buf)
			want := append(append([]byte(nil), prefix...), legacy...)
			if !bytes.Equal(got, want) {
				t.Errorf("%s: AppendEncode(%q) = %x, want %x", name, prefix, got, want)
			}
		}
	}
}

// TestAppendEncodeGrownBuffer re-encodes into a buffer with spare
// capacity — the pooled steady state — and checks the result is still
// byte-identical (no stale bytes leak through extend's unspecified
// regions).
func TestAppendEncodeGrownBuffer(t *testing.T) {
	for name, msg := range equivalenceCases() {
		buf := bytes.Repeat([]byte{0xee}, 4096)[:0]
		got := msg.AppendEncode(buf)
		if !bytes.Equal(got, msg.AppendEncode(nil)) {
			t.Errorf("%s: encode into dirty spare capacity diverged", name)
		}
	}
}

func TestBeginFinishFrameV2RoundTrip(t *testing.T) {
	payload := []byte("v2 payload")
	prefix := []byte("earlier frame")
	buf := BeginFrameV2(append([]byte(nil), prefix...))
	mark := len(prefix)
	buf = append(buf, payload...)
	if err := FinishFrameV2(buf, mark, 0xdeadbeef, TypeUploadReq); err != nil {
		t.Fatal(err)
	}
	var legacy bytes.Buffer
	if err := WriteFrameV2(&legacy, 0xdeadbeef, TypeUploadReq, payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[mark:], legacy.Bytes()) {
		t.Fatalf("built frame %x != WriteFrameV2 output %x", buf[mark:], legacy.Bytes())
	}
	if !bytes.Equal(buf[:mark], prefix) {
		t.Fatal("FinishFrameV2 clobbered bytes before its mark")
	}
	id, rt, rp, err := ReadFrameV2(bytes.NewReader(buf[mark:]))
	if err != nil || id != 0xdeadbeef || rt != TypeUploadReq || !bytes.Equal(rp, payload) {
		t.Fatalf("round trip: id %x type %d payload %q err %v", id, rt, rp, err)
	}
}

func TestFinishFrameRejectsOversize(t *testing.T) {
	buf := make([]byte, FrameHeaderLenV2+MaxFrameSize+1)
	if err := FinishFrameV2(buf, 0, 1, TypeQueryReq); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if err := FinishFrameV2(buf[:2], 4, 1, TypeQueryReq); err == nil {
		t.Fatal("FinishFrameV2 with mark past len must error")
	}
}

// TestReadFrameV2BufReuse drives the Buf reader over a stream of frames
// with one reusable buffer, checking payload contents, in-place growth,
// and that the buffer is never shrunk.
func TestReadFrameV2BufReuse(t *testing.T) {
	payloads := [][]byte{
		bytes.Repeat([]byte{1}, 10),
		bytes.Repeat([]byte{2}, 2000), // forces growth
		{},                            // empty payload after growth
		bytes.Repeat([]byte{3}, 100),  // shrink-free reuse
	}
	var stream bytes.Buffer
	for i, p := range payloads {
		if err := WriteFrameV2(&stream, uint64(100+i), MsgType(10+i), p); err != nil {
			t.Fatal(err)
		}
	}
	var buf []byte
	var lastCap int
	for i, want := range payloads {
		id, rt, rp, err := ReadFrameV2Buf(&stream, &buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if id != uint64(100+i) || rt != MsgType(10+i) || !bytes.Equal(rp, want) {
			t.Fatalf("frame %d: id %d type %d payload len %d", i, id, rt, len(rp))
		}
		if cap(buf) < lastCap {
			t.Fatalf("frame %d: buffer shrank %d -> %d", i, lastCap, cap(buf))
		}
		lastCap = cap(buf)
	}
	if _, _, _, err := ReadFrameV2Buf(&stream, &buf); err != io.EOF {
		t.Fatalf("EOF expected, got %v", err)
	}
}

func TestReadFrameV2BufRejectsOversize(t *testing.T) {
	hdr := make([]byte, FrameHeaderLenV2)
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xff, 0xff, 0xff, 0xff
	var buf []byte
	if _, _, _, err := ReadFrameV2Buf(bytes.NewReader(hdr), &buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// FuzzAppendEncodeDifferential decodes fuzzer-supplied payloads as each
// message type and, where the decode succeeds, checks that re-encoding
// via AppendEncode with a prefix agrees byte for byte with the
// fresh-buffer AppendEncode(nil) and, for the types that keep it, with
// Encode().
func FuzzAppendEncodeDifferential(f *testing.F) {
	for _, c := range equivalenceCases() {
		f.Add(c.AppendEncode(nil), []byte("px"))
	}
	f.Fuzz(func(t *testing.T, payload, prefix []byte) {
		check := func(name string, msg appendable) {
			legacy := msg.AppendEncode(nil)
			if w, ok := msg.(encodeWrapper); ok && !bytes.Equal(w.Encode(), legacy) {
				t.Fatalf("%s: Encode %x != AppendEncode(nil) %x", name, w.Encode(), legacy)
			}
			got := msg.AppendEncode(append([]byte(nil), prefix...))
			if !bytes.Equal(got[:len(prefix)], prefix) {
				t.Fatalf("%s: prefix clobbered", name)
			}
			if !bytes.Equal(got[len(prefix):], legacy) {
				t.Fatalf("%s: AppendEncode %x != AppendEncode(nil) %x", name, got[len(prefix):], legacy)
			}
		}
		if m, err := DecodeUploadReq(payload); err == nil {
			check("upload", m)
		}
		if m, err := DecodeUploadBatchReq(payload); err == nil {
			check("upload_batch", m)
		}
		if m, err := DecodeUploadBatchResp(payload); err == nil {
			check("upload_batch_resp", m)
		}
		if m, err := DecodeRemoveReq(payload); err == nil {
			check("remove", m)
		}
		if m, err := DecodeQueryReq(payload); err == nil {
			check("query", m)
		}
		if m, err := DecodeQueryResp(payload); err == nil {
			check("query_resp", m)
		}
		if m, err := DecodeOPRFBatchReq(payload); err == nil {
			check("oprf_batch_req", m)
		}
		if m, err := DecodeOPRFBatchResp(payload); err == nil {
			check("oprf_batch_resp", m)
		}
		if m, err := DecodeOPRFKeyResp(payload); err == nil {
			check("oprf_key_resp", m)
		}
		if m, err := DecodeErrorMsg(payload); err == nil {
			check("error", m)
		}
		if m, err := DecodeHello(payload); err == nil {
			check("hello", m)
		}
		if m, err := DecodeSubscribeReq(payload); err == nil {
			check("subscribe", m)
		}
		if m, err := DecodeMatchNotify(payload); err == nil {
			check("match_notify", m)
		}
		if m, err := DecodeReplicatePullReq(payload); err == nil {
			check("replicate_pull", m)
		}
		if m, err := DecodeReplicatePullResp(payload); err == nil {
			check("replicate_pull_resp", m)
		}
	})
}
