package wire

import (
	"bytes"
	"testing"
)

func TestReplicatePullReqRoundTrip(t *testing.T) {
	in := &ReplicatePullReq{NodeID: "node-b", AfterLSN: 12345, MaxRecords: 512, WaitMS: 2000}
	out, err := DecodeReplicatePullReq(in.AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if *out != *in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestReplicatePullReqRejects(t *testing.T) {
	cases := map[string][]byte{
		"empty node ID":  (&ReplicatePullReq{NodeID: "", AfterLSN: 1}).AppendEncode(nil),
		"giant node ID":  (&ReplicatePullReq{NodeID: string(make([]byte, MaxNodeIDLen+1))}).AppendEncode(nil),
		"over max recs":  (&ReplicatePullReq{NodeID: "n", MaxRecords: MaxReplicateRecords + 1}).AppendEncode(nil),
		"truncated":      (&ReplicatePullReq{NodeID: "n", AfterLSN: 7}).AppendEncode(nil)[:8],
		"trailing bytes": append((&ReplicatePullReq{NodeID: "n"}).AppendEncode(nil), 0),
	}
	for name, payload := range cases {
		if _, err := DecodeReplicatePullReq(payload); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestReplicatePullRespRecordsRoundTrip(t *testing.T) {
	in := &ReplicatePullResp{
		LeaderLSN: 44,
		FirstLSN:  42,
		Records:   [][]byte{{1, 2, 3}, {4}, {5, 6}},
	}
	out, err := DecodeReplicatePullResp(in.AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if out.Snapshot || out.FirstLSN != 42 || out.LeaderLSN != 44 || len(out.Records) != 3 {
		t.Fatalf("round trip: %+v", out)
	}
	for i := range in.Records {
		if !bytes.Equal(out.Records[i], in.Records[i]) {
			t.Fatalf("record %d: %v != %v", i, out.Records[i], in.Records[i])
		}
	}

	// Caught-up response: no records at all.
	empty := &ReplicatePullResp{FirstLSN: 100}
	out, err = DecodeReplicatePullResp(empty.AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if out.Snapshot || out.FirstLSN != 100 || out.Records != nil {
		t.Fatalf("empty round trip: %+v", out)
	}
}

func TestReplicatePullRespSnapshotRoundTrip(t *testing.T) {
	in := &ReplicatePullResp{Snapshot: true, LeaderLSN: 80, SnapLSN: 77, Snap: []byte("snapshot bytes")}
	out, err := DecodeReplicatePullResp(in.AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Snapshot || out.SnapLSN != 77 || out.LeaderLSN != 80 || !bytes.Equal(out.Snap, in.Snap) {
		t.Fatalf("round trip: %+v", out)
	}
}

func TestReplicatePullRespRejects(t *testing.T) {
	if _, err := DecodeReplicatePullResp(nil); err == nil {
		t.Error("empty payload decoded")
	}
	if _, err := DecodeReplicatePullResp([]byte{2, 0, 0}); err == nil {
		t.Error("unknown kind byte decoded")
	}
	if _, err := DecodeReplicatePullResp((&ReplicatePullResp{Snapshot: true, SnapLSN: 1}).AppendEncode(nil)); err == nil {
		t.Error("snapshot response without bytes decoded")
	}
	// A record-count claim beyond the limit must fail before allocation.
	var e encoder
	e.buf = append(e.buf, 0)
	e.u64(2) // leader LSN
	e.u64(1) // first LSN
	e.u32(MaxReplicateRecords + 1)
	if _, err := DecodeReplicatePullResp(e.buf); err == nil {
		t.Error("over-limit record count decoded")
	}
	// An embedded empty record is rejected (journal records are never empty).
	if _, err := DecodeReplicatePullResp((&ReplicatePullResp{FirstLSN: 1, Records: [][]byte{{}}}).AppendEncode(nil)); err == nil {
		t.Error("empty record decoded")
	}
}
