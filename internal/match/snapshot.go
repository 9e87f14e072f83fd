package match

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"smatch/internal/profile"
)

// Snapshot format: magic, version, entry count, then per entry the same
// fields an upload carries. Everything the server stores is ciphertext or
// opaque, so a snapshot is exactly as sensitive as the server's memory —
// no more.
var snapshotMagic = [8]byte{'S', 'M', 'A', 'T', 'C', 'H', 'S', '1'}

const maxSnapshotEntries = 1 << 24 // backstop against corrupted counts

// Snapshot serializes every stored record so a server can restart without
// requiring all users to re-upload ("users update encrypted profiles
// periodically" — but the store should survive a restart regardless).
// Entries are written in ascending user-ID order, so two snapshots of the
// same state are byte-identical. The read lock is held for the whole
// write, so the snapshot is one consistent state. A record's chain and
// auth bytes are written as stored.
func (s *Server) Snapshot(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	recs := s.sortedRecords()

	// bufio.Writer's error is sticky: a failed write makes every later
	// write and the final Flush return it, so only Flush is checked.
	bw := bufio.NewWriter(w)
	hdr := append(make([]byte, 0, 16), snapshotMagic[:]...)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(recs)))
	bw.Write(hdr)
	for _, rec := range recs {
		n := rec.chainLen()
		hdr = binary.BigEndian.AppendUint32(hdr[:0], uint32(rec.ID))
		hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(rec.key)))
		bw.Write(hdr)
		bw.WriteString(rec.key)
		hdr = binary.BigEndian.AppendUint32(hdr[:0], rec.ctBits)
		hdr = binary.BigEndian.AppendUint16(hdr, rec.nAttrs)
		hdr = binary.BigEndian.AppendUint32(hdr, uint32(n))
		bw.Write(hdr)
		bw.Write(rec.blob[:n])
		hdr = binary.BigEndian.AppendUint32(hdr[:0], uint32(len(rec.blob)-n))
		bw.Write(hdr)
		bw.Write(rec.blob[n:])
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("match: writing snapshot: %w", err)
	}
	return nil
}

// Restore rebuilds a server from a snapshot. Each record is built
// straight from its snapshot bytes; restore does no big.Int work.
func Restore(r io.Reader) (*Server, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("match: reading snapshot magic: %w", err)
	}
	if magic != snapshotMagic {
		return nil, errors.New("match: not a smatch snapshot (bad magic)")
	}
	var hdr [10]byte
	if _, err := io.ReadFull(br, hdr[:4]); err != nil {
		return nil, fmt.Errorf("match: reading snapshot count: %w", err)
	}
	count := binary.BigEndian.Uint32(hdr[:4])
	if count > maxSnapshotEntries {
		return nil, fmt.Errorf("match: snapshot claims %d entries (max %d)", count, maxSnapshotEntries)
	}
	// readLen reads a field's uint32 length prefix and checks it.
	readLen := func(limit int) (int, error) {
		if _, err := io.ReadFull(br, hdr[:4]); err != nil {
			return 0, err
		}
		n := binary.BigEndian.Uint32(hdr[:4])
		if n > uint32(limit) {
			return 0, fmt.Errorf("field of %d bytes exceeds limit %d", n, limit)
		}
		return int(n), nil
	}

	s := NewServer()
	var keyHash, chainBytes []byte // reused: put copies the key it keeps
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(br, hdr[:4]); err != nil {
			return nil, fmt.Errorf("match: entry %d: %w", i, err)
		}
		id := profile.ID(binary.BigEndian.Uint32(hdr[:4]))
		n, err := readLen(MaxKeyHashLen)
		if err != nil {
			return nil, fmt.Errorf("match: entry %d key hash: %w", i, err)
		}
		keyHash = slices.Grow(keyHash[:0], n)[:n]
		if _, err := io.ReadFull(br, keyHash); err != nil {
			return nil, fmt.Errorf("match: entry %d key hash: %w", i, err)
		}
		if _, err := io.ReadFull(br, hdr[:6]); err != nil {
			return nil, fmt.Errorf("match: entry %d: %w", i, err)
		}
		ctBits := uint(binary.BigEndian.Uint32(hdr[:4]))
		numAttrs := int(binary.BigEndian.Uint16(hdr[4:6]))
		want, err := chainSize(numAttrs, ctBits)
		if err != nil {
			return nil, fmt.Errorf("match: entry %d: %w", i, err)
		}
		if n, err = readLen(MaxChainBytes); err != nil {
			return nil, fmt.Errorf("match: entry %d chain: %w", i, err)
		}
		if n != want {
			return nil, fmt.Errorf("match: entry %d: chain of %d bytes, want %d (d=%d, %d bits per ciphertext)", i, n, want, numAttrs, ctBits)
		}
		chainBytes = slices.Grow(chainBytes[:0], n)[:n]
		if _, err := io.ReadFull(br, chainBytes); err != nil {
			return nil, fmt.Errorf("match: entry %d chain: %w", i, err)
		}
		authLen, err := readLen(MaxAuthLen)
		if err != nil {
			return nil, fmt.Errorf("match: entry %d auth: %w", i, err)
		}
		blob := make([]byte, n+authLen)
		copy(blob, chainBytes)
		if _, err := io.ReadFull(br, blob[n:]); err != nil {
			return nil, fmt.Errorf("match: entry %d auth: %w", i, err)
		}
		if err := checkFields(id, keyHash, authLen); err != nil {
			return nil, fmt.Errorf("match: entry %d: %w", i, err)
		}
		rec, err := newStored(id, ctBits, numAttrs, blob)
		if err != nil {
			return nil, fmt.Errorf("match: entry %d: %w", i, err)
		}
		s.put(rec, keyHash)
	}
	// The snapshot must end exactly here.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, errors.New("match: trailing bytes after snapshot")
	}
	return s, nil
}

// sortedRecords returns every record in ascending ID order. Caller holds
// the read lock.
func (s *Server) sortedRecords() []*stored {
	recs := make([]*stored, 0, len(s.ids))
	for _, rec := range s.ids {
		recs = append(recs, rec)
	}
	slices.SortFunc(recs, func(a, b *stored) int { return cmp.Compare(a.ID, b.ID) })
	return recs
}
