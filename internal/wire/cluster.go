// Cluster wire messages: WAL log-shipping replication. Replication is
// pull-based — a follower is just a v2 client of its leader that
// repeatedly asks "records after LSN x, please", and the AfterLSN it
// sends doubles as its acknowledgement: the leader may treat everything
// at or below it as durably applied by that follower.
// The shipped unit is the journal record byte-for-byte (op byte +
// wire-encoded payload), the same bytes crash recovery replays, so the
// follower's apply path is the replay path.
package wire

import (
	"errors"
	"fmt"
)

// MaxReplicateRecords caps how many journal records one pull response
// may carry. The frame size limit is the real bound; this keeps a single
// decode from committing to absurd allocation counts before it has read
// a byte of record data.
const MaxReplicateRecords = 4096

// MaxNodeIDLen bounds the follower-chosen node name carried in pulls.
const MaxNodeIDLen = 128

// ReplicatePullReq asks a leader for journal records after AfterLSN.
// AfterLSN is also the follower's high-water acknowledgement. WaitMS
// turns the pull into a long poll: a leader with nothing past AfterLSN
// holds the request up to that long for new commits before answering
// empty, which gives tail-following latency without a busy poll loop.
type ReplicatePullReq struct {
	NodeID     string // stable follower identity, for ack bookkeeping
	AfterLSN   uint64 // records strictly after this LSN; acks everything at or below
	MaxRecords uint32 // cap on records in the response (0 = leader default)
	WaitMS     uint32 // long-poll budget when caught up (0 = answer immediately)
}

// AppendEncode appends the encoded pull request to buf.
func (r *ReplicatePullReq) AppendEncode(buf []byte) []byte {
	e := encoder{buf: buf}
	e.u32(uint32(len(r.NodeID)))
	e.buf = append(e.buf, r.NodeID...)
	e.u64(r.AfterLSN)
	e.u32(r.MaxRecords)
	e.u32(r.WaitMS)
	return e.buf
}

// DecodeReplicatePullReq parses a pull request payload.
func DecodeReplicatePullReq(payload []byte) (*ReplicatePullReq, error) {
	d := decoder{buf: payload}
	var r ReplicatePullReq
	id, err := d.bytes()
	if err != nil {
		return nil, err
	}
	if len(id) == 0 || len(id) > MaxNodeIDLen {
		return nil, fmt.Errorf("wire: replicate node ID of %d bytes", len(id))
	}
	r.NodeID = string(id)
	if r.AfterLSN, err = d.u64(); err != nil {
		return nil, err
	}
	if r.MaxRecords, err = d.u32(); err != nil {
		return nil, err
	}
	if r.MaxRecords > MaxReplicateRecords {
		return nil, fmt.Errorf("wire: replicate pull asks for %d records, limit %d", r.MaxRecords, MaxReplicateRecords)
	}
	if r.WaitMS, err = d.u32(); err != nil {
		return nil, err
	}
	return &r, d.done()
}

// ReplicatePullResp answers a pull. Exactly one of two shapes:
//
//   - Snapshot == false: Records are the journal records with LSNs
//     FirstLSN, FirstLSN+1, ... (dense). Empty Records with FirstLSN ==
//     AfterLSN+1 means "caught up, nothing new within the wait budget".
//   - Snapshot == true: the requested range was compacted away. Snap is
//     the leader's newest checkpoint (a store snapshot) covering every
//     LSN <= SnapLSN; the follower installs it and resumes pulling after
//     SnapLSN. Records is empty.
//
// LeaderLSN is the leader's last committed LSN at answer time in both
// shapes — the high-water mark a follower measures its replication lag
// against.
type ReplicatePullResp struct {
	Snapshot  bool
	LeaderLSN uint64
	SnapLSN   uint64
	Snap      []byte
	FirstLSN  uint64
	Records   [][]byte
}

// AppendEncode appends the encoded pull response to buf — the leader's
// per-pull path, so shipping a page of records reuses one buffer.
func (r *ReplicatePullResp) AppendEncode(buf []byte) []byte {
	e := encoder{buf: buf}
	if r.Snapshot {
		e.buf = append(e.buf, 1)
		e.u64(r.LeaderLSN)
		e.u64(r.SnapLSN)
		e.bytes(r.Snap)
		return e.buf
	}
	e.buf = append(e.buf, 0)
	e.u64(r.LeaderLSN)
	e.u64(r.FirstLSN)
	e.u32(uint32(len(r.Records)))
	for _, rec := range r.Records {
		e.bytes(rec)
	}
	return e.buf
}

// DecodeReplicatePullResp parses a pull response payload.
func DecodeReplicatePullResp(payload []byte) (*ReplicatePullResp, error) {
	if len(payload) == 0 {
		return nil, errors.New("wire: empty replicate pull response")
	}
	d := decoder{buf: payload[1:]}
	var r ReplicatePullResp
	var err error
	switch payload[0] {
	case 1:
		r.Snapshot = true
		if r.LeaderLSN, err = d.u64(); err != nil {
			return nil, err
		}
		if r.SnapLSN, err = d.u64(); err != nil {
			return nil, err
		}
		if r.Snap, err = d.bytes(); err != nil {
			return nil, err
		}
		if len(r.Snap) == 0 {
			return nil, errors.New("wire: replicate snapshot response with no snapshot bytes")
		}
		return &r, d.done()
	case 0:
		if r.LeaderLSN, err = d.u64(); err != nil {
			return nil, err
		}
		if r.FirstLSN, err = d.u64(); err != nil {
			return nil, err
		}
		n, err := d.u32()
		if err != nil {
			return nil, err
		}
		if n > MaxReplicateRecords {
			return nil, fmt.Errorf("wire: replicate pull response claims %d records, limit %d", n, MaxReplicateRecords)
		}
		if n > 0 {
			r.Records = make([][]byte, 0, min(int(n), 256))
			for i := uint32(0); i < n; i++ {
				rec, err := d.bytes()
				if err != nil {
					return nil, err
				}
				if len(rec) == 0 {
					return nil, errors.New("wire: empty replicated record")
				}
				r.Records = append(r.Records, rec)
			}
		}
		return &r, d.done()
	default:
		return nil, fmt.Errorf("wire: replicate pull response kind %d", payload[0])
	}
}
