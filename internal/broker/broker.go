// Package broker is the fan-out layer between the service layer's apply
// step and the per-connection writers: it keeps a registry of standing
// encrypted probes (subscriptions) keyed by bucket, evaluates every
// applied mutation against them, and queues notifications for the
// transport to deliver.
//
// The design constraint is that a slow subscriber must never stall apply:
// publishing only ever appends to a bounded per-subscription queue with
// drop-oldest semantics — every drop is counted and surfaced to the
// subscriber in the next delivered notification — and wakes the
// subscriber's pump with a non-blocking signal. The broker never touches
// a connection; internal/server owns delivery.
//
// Like the match store, the broker compares only OPE order sums: a probe
// is a bucket (key hash) plus an order sum and a distance threshold, so
// evaluation is one fixed-width limb subtract per subscriber in the
// entry's bucket (match.Sum — the same allocation-free representation the
// store's ordered index compares; big.Int survives only at the wire
// boundary where thresholds are decoded). What the server learns from a
// subscription is exactly what a standing MAX-distance query would leak:
// the bucket, the probe's ciphertext position, the threshold width, and
// when matches occur (see DESIGN §16 for the leakage note).
package broker

import (
	"errors"
	"fmt"
	"math/big"
	"sync"

	"smatch/internal/match"
	"smatch/internal/metrics"
	"smatch/internal/profile"
)

// DefaultQueueCap bounds a subscription's notification queue when the
// config leaves it zero: deep enough to ride out a transient stall,
// shallow enough that one dead subscriber pins only a few KB.
const DefaultQueueCap = 64

// Event classifies a notification.
type Event uint8

// Notification events.
const (
	// EventMatch: a profile within the probe's threshold appeared — a new
	// upload, or a re-upload that moved into range.
	EventMatch Event = 1
	// EventGone: a previously notified profile left the threshold —
	// removed, or re-uploaded out of range.
	EventGone Event = 2
)

// Notification is one queued push for a subscriber. Seq is assigned at
// enqueue time and strictly increases per subscription, so a receiver
// holding the delivered Seqs plus the Dropped counter can account for
// every notification ever generated. Dropped is stamped at pop time with
// the subscription's cumulative drop count.
type Notification struct {
	Seq     uint64
	Dropped uint64
	Event   Event
	ID      profile.ID
	Auth    []byte
}

// Probe is a standing encrypted query: notify when an entry in KeyHash's
// bucket lands within MaxDist of OrderSum.
type Probe struct {
	KeyHash  []byte
	OrderSum *big.Int
	MaxDist  *big.Int
}

// Config tunes the broker.
type Config struct {
	// QueueCap bounds each subscription's notification queue; at the cap
	// the oldest queued notification is dropped (and counted). Zero means
	// DefaultQueueCap.
	QueueCap int
	// Metrics receives the subscription gauges and notify/drop counters;
	// nil disables recording.
	Metrics *metrics.Registry
}

// Broker is the subscription registry. Safe for concurrent use.
type Broker struct {
	queueCap int
	m        *metrics.Registry

	mu       sync.Mutex
	nextKey  uint64
	byBucket map[string]map[uint64]*Sub
	// distScratch is the reusable limb buffer for threshold evaluation;
	// guarded by mu like everything else, so steady-state publishing
	// allocates nothing per subscriber.
	distScratch []uint64
	// notifiedBy indexes, per profile ID, the subscriptions currently
	// holding that ID as "notified": the set a remove (or a re-key away)
	// must tell. It keeps remove cost proportional to interested
	// subscribers, not to all subscribers.
	notifiedBy map[profile.ID]map[uint64]*Sub
	subs       map[uint64]*Sub
}

// Sub is one registered subscription. All state is guarded by the
// broker's mutex; Pop is the only method the delivery side needs.
type Sub struct {
	b      *Broker
	key    uint64
	bucket string
	probe  match.Sum
	dist   match.Sum
	wake   func()

	queue    []Notification
	seq      uint64
	dropped  uint64
	notified map[profile.ID]match.Sum // ID -> order sum last notified as EventMatch
	closed   bool
}

// New builds an empty broker.
func New(cfg Config) *Broker {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	return &Broker{
		queueCap:   cfg.QueueCap,
		m:          cfg.Metrics,
		byBucket:   make(map[string]map[uint64]*Sub),
		notifiedBy: make(map[profile.ID]map[uint64]*Sub),
		subs:       make(map[uint64]*Sub),
	}
}

// Subscribe registers a probe. wake is invoked (under the broker lock;
// it must not block — a one-slot signal channel is the intended shape)
// whenever the subscription's queue receives a notification.
func (b *Broker) Subscribe(p Probe, wake func()) (*Sub, error) {
	if len(p.KeyHash) == 0 {
		return nil, errors.New("broker: empty probe key hash")
	}
	if len(p.KeyHash) > match.MaxKeyHashLen {
		return nil, fmt.Errorf("broker: probe key hash of %d bytes exceeds limit %d", len(p.KeyHash), match.MaxKeyHashLen)
	}
	if p.OrderSum == nil {
		return nil, errors.New("broker: nil probe order sum")
	}
	if p.MaxDist == nil || p.MaxDist.Sign() < 0 {
		return nil, errors.New("broker: nil or negative probe threshold")
	}
	if wake == nil {
		wake = func() {}
	}
	s := &Sub{
		b:        b,
		bucket:   string(p.KeyHash),
		probe:    match.SumFromBig(p.OrderSum),
		dist:     match.SumFromBig(p.MaxDist),
		wake:     wake,
		notified: make(map[profile.ID]match.Sum),
	}
	b.mu.Lock()
	b.nextKey++
	s.key = b.nextKey
	bucket := b.byBucket[s.bucket]
	if bucket == nil {
		bucket = make(map[uint64]*Sub)
		b.byBucket[s.bucket] = bucket
	}
	bucket[s.key] = s
	b.subs[s.key] = s
	b.mu.Unlock()
	if b.m != nil {
		b.m.Subscribes.Add(1)
		b.m.SubscriptionsActive.Add(1)
	}
	return s, nil
}

// Unsubscribe deregisters a subscription; its queue is discarded and no
// further notifications are generated. Idempotent.
func (b *Broker) Unsubscribe(s *Sub) {
	if s == nil {
		return
	}
	b.mu.Lock()
	if s.closed {
		b.mu.Unlock()
		return
	}
	s.closed = true
	s.queue = nil
	delete(b.subs, s.key)
	if bucket := b.byBucket[s.bucket]; bucket != nil {
		delete(bucket, s.key)
		if len(bucket) == 0 {
			delete(b.byBucket, s.bucket)
		}
	}
	for id := range s.notified {
		b.dropNotifiedIndex(id, s.key)
	}
	b.mu.Unlock()
	if b.m != nil {
		b.m.Unsubscribes.Add(1)
		b.m.SubscriptionsActive.Add(-1)
	}
}

// dropNotifiedIndex removes one (ID, sub) edge from the reverse index.
// Caller holds b.mu.
func (b *Broker) dropNotifiedIndex(id profile.ID, key uint64) {
	set := b.notifiedBy[id]
	if set == nil {
		return
	}
	delete(set, key)
	if len(set) == 0 {
		delete(b.notifiedBy, id)
	}
}

// NumSubs reports the number of active subscriptions.
func (b *Broker) NumSubs() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Stats summarizes the registry for the metrics endpoint.
type Stats struct {
	Subs    int `json:"subs"`
	Buckets int `json:"buckets"`
	Queued  int `json:"queued"`
}

// Stats computes the current registry shape.
func (b *Broker) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := Stats{Subs: len(b.subs), Buckets: len(b.byBucket)}
	for _, s := range b.subs {
		st.Queued += len(s.queue)
	}
	return st
}

// enqueue appends one notification to a subscription's bounded queue,
// dropping (and counting) the oldest at the cap, then wakes the pump.
// Caller holds b.mu.
func (b *Broker) enqueue(s *Sub, ev Event, id profile.ID, auth []byte) {
	s.seq++
	if len(s.queue) >= b.queueCap {
		copy(s.queue, s.queue[1:])
		s.queue = s.queue[:len(s.queue)-1]
		s.dropped++
		if b.m != nil {
			b.m.NotifiesDropped.Add(1)
		}
	}
	s.queue = append(s.queue, Notification{Seq: s.seq, Event: ev, ID: id, Auth: auth})
	if b.m != nil {
		b.m.NotifiesEnqueued.Add(1)
	}
	s.wake()
}

// Pop dequeues the oldest pending notification, stamping it with the
// subscription's cumulative drop counter. ok is false when the queue is
// empty (or the subscription is closed).
func (s *Sub) Pop() (n Notification, ok bool) {
	b := s.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if s.closed || len(s.queue) == 0 {
		return Notification{}, false
	}
	n = s.queue[0]
	copy(s.queue, s.queue[1:])
	s.queue = s.queue[:len(s.queue)-1]
	n.Dropped = s.dropped
	return n, true
}

// Dropped reports the subscription's cumulative drop count.
func (s *Sub) Dropped() uint64 {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	return s.dropped
}

// PublishRecord evaluates one applied upload (single or batch entry)
// against the registry: subscribers in the record's bucket within
// threshold get EventMatch (suppressed when the same ID was already
// notified at the same order sum — an idempotent re-upload), subscribers
// that had notified this ID but no longer qualify — it moved out of
// range, or into a different bucket — get EventGone. It reads the order
// sum the store computed, and the queued auth is the record's immutable
// tail. Never blocks.
func (b *Broker) PublishRecord(r match.Record) {
	b.publish(r.ID(), r.KeyHash(), r.Sum(), r.Auth())
}

// PublishUpsert is PublishRecord for an uploaded Entry: it sums the
// entry's chain, which must be valid (Entry.Validate), and retains its
// Auth.
func (b *Broker) PublishUpsert(e match.Entry) {
	b.publish(e.ID, e.KeyHash, match.SumOfChain(e.Chain), e.Auth)
}

// publish is the evaluation behind PublishRecord and PublishUpsert.
func (b *Broker) publish(id profile.ID, keyHash []byte, sum match.Sum, auth []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.subs) == 0 {
		return
	}
	bucket := b.byBucket[string(keyHash)]
	interested := b.notifiedBy[id]
	if len(bucket) == 0 && len(interested) == 0 {
		return
	}
	for key, s := range bucket {
		var within bool
		within, b.distScratch = s.probe.WithinDist(sum, s.dist, b.distScratch)
		if within {
			if prev, ok := s.notified[id]; ok && prev.Cmp(sum) == 0 {
				continue // already notified at this exact position
			}
			s.notified[id] = sum
			set := b.notifiedBy[id]
			if set == nil {
				set = make(map[uint64]*Sub)
				b.notifiedBy[id] = set
			}
			set[key] = s
			b.enqueue(s, EventMatch, id, auth)
		} else if _, ok := s.notified[id]; ok {
			delete(s.notified, id)
			b.dropNotifiedIndex(id, key)
			b.enqueue(s, EventGone, id, nil)
		}
	}
	// Subscriptions outside the record's bucket that had notified this ID:
	// the profile re-keyed away from them.
	for key, s := range b.notifiedBy[id] {
		if s.bucket == string(keyHash) {
			continue // handled (or re-confirmed) above
		}
		delete(s.notified, id)
		b.dropNotifiedIndex(id, key)
		b.enqueue(s, EventGone, id, nil)
	}
}

// PublishRemove evaluates one applied remove: every subscription that had
// notified this ID learns it is gone. Never blocks.
func (b *Broker) PublishRemove(id profile.ID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	set := b.notifiedBy[id]
	if len(set) == 0 {
		return
	}
	for _, s := range set {
		delete(s.notified, id)
		b.enqueue(s, EventGone, id, nil)
	}
	delete(b.notifiedBy, id)
}
