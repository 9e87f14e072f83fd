package wire

import (
	"bytes"
	"math/big"
	"testing"

	"smatch/internal/profile"
)

func testSubscribeReq() SubscribeReq {
	return SubscribeReq{
		SubID:    7,
		KeyHash:  []byte("bucket"),
		CtBits:   48,
		NumAttrs: 2,
		Chain:    make([]byte, 12),
		MaxDist:  big.NewInt(1000),
	}
}

func TestSubscribeReqRoundTrip(t *testing.T) {
	req := testSubscribeReq()
	got, err := DecodeSubscribeReq(req.AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.SubID != req.SubID || !bytes.Equal(got.KeyHash, req.KeyHash) ||
		got.CtBits != req.CtBits || got.NumAttrs != req.NumAttrs ||
		!bytes.Equal(got.Chain, req.Chain) || got.MaxDist.Cmp(req.MaxDist) != 0 {
		t.Fatalf("round trip changed request: %+v -> %+v", req, got)
	}
	if _, err := got.ProbeChain(); err != nil {
		t.Fatalf("probe chain: %v", err)
	}
}

func TestSubscribeReqRejectsMalformed(t *testing.T) {
	cases := map[string]func() []byte{
		"truncated": func() []byte { return []byte{0, 0, 0} },
		"push-range sub ID": func() []byte {
			req := testSubscribeReq()
			req.SubID = PushID(7)
			return req.AppendEncode(nil)
		},
		"empty key hash": func() []byte {
			req := testSubscribeReq()
			req.KeyHash = nil
			return req.AppendEncode(nil)
		},
		"oversize threshold": func() []byte {
			req := testSubscribeReq()
			req.MaxDist = new(big.Int).SetBytes(bytes.Repeat([]byte{0xff}, MaxSubMaxDist+1))
			return req.AppendEncode(nil)
		},
		"trailing bytes": func() []byte {
			req := testSubscribeReq()
			return append(req.AppendEncode(nil), 0)
		},
	}
	for name, mk := range cases {
		if _, err := DecodeSubscribeReq(mk()); err == nil {
			t.Errorf("%s: decode accepted malformed payload", name)
		}
	}
}

func TestSubscribeAckRoundTrips(t *testing.T) {
	ack, err := DecodeSubscribeResp((&SubscribeResp{SubID: 42}).AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if ack.SubID != 42 {
		t.Fatalf("subscribe ack sub ID = %d, want 42", ack.SubID)
	}
	unreq, err := DecodeUnsubscribeReq((&UnsubscribeReq{SubID: 9}).AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if unreq.SubID != 9 {
		t.Fatalf("unsubscribe req sub ID = %d, want 9", unreq.SubID)
	}
	unack, err := DecodeUnsubscribeResp((&UnsubscribeResp{SubID: 9}).AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if unack.SubID != 9 {
		t.Fatalf("unsubscribe ack sub ID = %d, want 9", unack.SubID)
	}
}

func TestMatchNotifyRoundTrip(t *testing.T) {
	n := MatchNotify{SubID: 3, Seq: 11, Dropped: 2, Event: NotifyEventMatch, ID: profile.ID(55), Auth: []byte("auth")}
	got, err := DecodeMatchNotify(n.AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.SubID != n.SubID || got.Seq != n.Seq || got.Dropped != n.Dropped ||
		got.Event != n.Event || got.ID != n.ID || !bytes.Equal(got.Auth, n.Auth) {
		t.Fatalf("round trip changed notification: %+v -> %+v", n, got)
	}
	gone := MatchNotify{SubID: 3, Seq: 12, Event: NotifyEventGone, ID: profile.ID(55)}
	if _, err := DecodeMatchNotify(gone.AppendEncode(nil)); err != nil {
		t.Fatalf("gone event: %v", err)
	}
}

func TestMatchNotifyRejectsMalformed(t *testing.T) {
	cases := map[string]func() []byte{
		"truncated": func() []byte { return []byte{0, 0, 0, 0, 0} },
		"push-range sub ID": func() []byte {
			n := MatchNotify{SubID: PushID(3), Seq: 1, Event: NotifyEventMatch, ID: 1}
			return n.AppendEncode(nil)
		},
		"unknown event": func() []byte {
			n := MatchNotify{SubID: 3, Seq: 1, Event: 9, ID: 1}
			return n.AppendEncode(nil)
		},
		"trailing bytes": func() []byte {
			n := MatchNotify{SubID: 3, Seq: 1, Event: NotifyEventMatch, ID: 1}
			return append(n.AppendEncode(nil), 0)
		},
	}
	for name, mk := range cases {
		if _, err := DecodeMatchNotify(mk()); err == nil {
			t.Errorf("%s: decode accepted malformed payload", name)
		}
	}
}

func TestPushIDRange(t *testing.T) {
	for _, id := range []uint64{0, 1, 1 << 40, PushIDBase - 1} {
		if IsPushID(id) {
			t.Errorf("client ID %d classified as push", id)
		}
	}
	for _, sub := range []uint64{0, 7, PushIDBase - 1} {
		id := PushID(sub)
		if !IsPushID(id) {
			t.Errorf("PushID(%d) = %d not classified as push", sub, id)
		}
		if got := SubIDOfPush(id); got != sub {
			t.Errorf("SubIDOfPush(PushID(%d)) = %d", sub, got)
		}
	}
}

func FuzzSubscribe(f *testing.F) {
	// Seeds: a valid subscribe request, a truncated header, a sub ID inside
	// the reserved push range, and an oversize threshold. The checked-in
	// corpus mirrors these so plain `go test` exercises them too.
	req := testSubscribeReq()
	f.Add(req.AppendEncode(nil))
	req.SubID = PushID(7)
	f.Add(req.AppendEncode(nil))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})

	f.Fuzz(func(t *testing.T, payload []byte) {
		s, err := DecodeSubscribeReq(payload)
		if err != nil {
			return
		}
		if IsPushID(s.SubID) {
			t.Fatalf("decoder accepted sub ID %d inside the push range", s.SubID)
		}
		// Accepted requests re-encode to the exact input (the codec has no
		// redundant representations) and never panic parsing the chain.
		if !bytes.Equal(s.AppendEncode(nil), payload) {
			t.Fatalf("re-encode differs from accepted payload")
		}
		_, _ = s.ProbeChain()
	})
}

func FuzzMatchNotify(f *testing.F) {
	// Seeds: valid match and gone events, a truncated header, an unknown
	// event, and a sub ID inside the reserved push range.
	n := MatchNotify{SubID: 3, Seq: 11, Dropped: 2, Event: NotifyEventMatch, ID: profile.ID(55), Auth: []byte("auth")}
	f.Add(n.AppendEncode(nil))
	n.Event = NotifyEventGone
	n.Auth = nil
	f.Add(n.AppendEncode(nil))
	n.Event = 9
	f.Add(n.AppendEncode(nil))
	f.Add([]byte{0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := DecodeMatchNotify(payload)
		if err != nil {
			return
		}
		if m.Event != NotifyEventMatch && m.Event != NotifyEventGone {
			t.Fatalf("decoder accepted unknown event %d", m.Event)
		}
		if IsPushID(m.SubID) {
			t.Fatalf("decoder accepted sub ID %d inside the push range", m.SubID)
		}
		if !bytes.Equal(m.AppendEncode(nil), payload) {
			t.Fatalf("re-encode differs from accepted payload")
		}
	})
}
