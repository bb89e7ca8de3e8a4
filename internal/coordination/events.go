// Package coordination implements the ODP coordination functions of
// Section 8.2 of the tutorial: event notification, groups and
// replication, and checkpoint-and-recovery (deactivation/reactivation and
// migration being provided by package engineering, and transactions by
// package transactions).
package coordination

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/hashring"
	"repro/internal/mgmt"
	"repro/internal/values"
)

// Event is one notification: a topic plus a payload value.
type Event struct {
	Topic   string
	Payload values.Value
	Seq     uint64 // shard-assigned, totally ordered per shard
}

// Filter selects events a subscriber wants; nil accepts all.
type Filter func(Event) bool

// Bus is the event-notification function: typed publish/subscribe with
// per-subscriber filters, at any shard count. Each topic is routed to one
// shard by consistent hash — the ring the trader and relocator shard with
// — so publishers on unrelated topics do not contend on one sequencing
// lock; the singleton (NewBus) is the one-shard case, which routes without
// touching the ring. Routing depends only on the ring's membership, not on
// join order or ring epoch, and membership is fixed at construction (which
// makes lock-free routing reads sound). A Bus is safe for concurrent use.
//
// Ordering: Seq numbers and total order are per shard. Events on one
// topic (one shard) are totally ordered; a wildcard ("" topic) subscriber
// is fanned out to every shard and sees each shard's events in that
// shard's Seq order, with no ordering defined across shards.
//
// Two delivery modes exist. Subscribe registers an inline subscriber:
// delivery is synchronous and in publication order, so tests and
// coordinated functions (e.g. relocation watchers) see a deterministic
// sequence — but a slow inline subscriber holds up its publisher.
// SubscribeQueued registers a bounded-queue subscriber: Publish enqueues
// (never blocks) and a dedicated drain goroutine invokes the callback, so
// one slow subscriber can no longer stall publishers bus-wide. Events are
// enqueued while the shard lock that assigned their sequence number is
// still held, so each queued subscriber observes events in strictly
// ascending Seq order — the same order an inline subscriber would see —
// and a full queue drops the new event (counted in Stats) rather than
// blocking or reordering.
type Bus struct {
	ring   *hashring.Ring
	shards []*busShard // in ShardNames order
	byName map[string]*busShard
}

// busShard is one sequencing domain: its own lock, Seq counter,
// subscriber table and counters.
type busShard struct {
	name string

	mu      sync.Mutex
	nextSub int
	nextSeq uint64
	subs    map[int]*subscription

	published atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64
	stalls    atomic.Uint64
	queued    atomic.Int64
}

type subscription struct {
	id     int
	topic  string // "" matches every topic
	filter Filter
	fn     func(Event)

	// Queued-mode fields; q == nil means inline synchronous delivery.
	q    chan Event
	done chan struct{} // closed when the drain goroutine exits
}

// NewBus returns an empty bus of one shard, named "bus".
func NewBus() *Bus { return newBus("bus") }

// NewShardedBus returns a bus with n topic shards, named b0..b<n-1> on a
// 64-virtual-point ring; n < 1 is NewBus.
func NewShardedBus(n int) *Bus {
	if n < 1 {
		return NewBus()
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("b%d", i)
	}
	return newBus(names...)
}

func newBus(names ...string) *Bus {
	b := &Bus{ring: hashring.New(), byName: make(map[string]*busShard, len(names))}
	for _, name := range names {
		sh := &busShard{name: name, subs: make(map[int]*subscription)}
		b.ring.Add(name)
		b.shards = append(b.shards, sh)
		b.byName[name] = sh
	}
	return b
}

// shard routes a topic to its shard.
func (b *Bus) shard(topic string) *busShard {
	if len(b.shards) == 1 {
		return b.shards[0]
	}
	return b.byName[b.ring.Owner(topic)]
}

// shardsFor is where a subscription to topic registers: the topic's
// shard, or every shard for the wildcard "".
func (b *Bus) shardsFor(topic string) []*busShard {
	if topic == "" {
		return b.shards
	}
	return []*busShard{b.shard(topic)}
}

// ShardFor reports which shard the topic routes to (exported so tests
// and operators can check placement).
func (b *Bus) ShardFor(topic string) string { return b.shard(topic).name }

// ShardNames returns the shard names in construction order.
func (b *Bus) ShardNames() []string {
	names := make([]string, len(b.shards))
	for i, sh := range b.shards {
		names[i] = sh.name
	}
	return names
}

// Subscribe registers fn for events on topic (empty topic = all topics,
// on every shard), optionally filtered. The returned function cancels the
// subscription.
func (b *Bus) Subscribe(topic string, filter Filter, fn func(Event)) (cancel func()) {
	var cancels []func()
	for _, sh := range b.shardsFor(topic) {
		cancels = append(cancels, sh.add(&subscription{topic: topic, filter: filter, fn: fn}))
	}
	return callAll(cancels)
}

// SubscribeQueued registers fn behind a bounded delivery queue of the
// given capacity (minimum 1). Publish enqueues without blocking; a
// dedicated goroutine drains the queue and invokes fn, so a slow fn
// delays only this subscriber. When the queue is full the new event is
// dropped for this subscriber and counted in Stats().Dropped. The
// filter runs in the drain goroutine, off the publisher's path. A
// wildcard subscriber gets one queue (and one drain goroutine) per shard,
// each of the given capacity, so a slow wildcard consumer still cannot
// couple the shards to each other.
//
// Per-subscriber order: events arrive in strictly ascending Seq order
// (enqueueing happens under the same lock that assigns Seq), with gaps
// only where events were dropped or filtered.
//
// The returned cancel stops the subscription and blocks until every
// already-queued event has been delivered and the drain goroutine has
// exited, so callers can tear down without leaking goroutines.
func (b *Bus) SubscribeQueued(topic string, filter Filter, capacity int, fn func(Event)) (cancel func()) {
	var cancels []func()
	for _, sh := range b.shardsFor(topic) {
		s := &subscription{
			topic:  topic,
			filter: filter,
			fn:     fn,
			q:      make(chan Event, max(capacity, 1)),
			done:   make(chan struct{}),
		}
		go sh.drain(s)
		remove := sh.add(s)
		cancels = append(cancels, func() {
			remove()
			// No publisher can reach s.q any more (enqueues happen under
			// the shard lock, and the subscription is gone), so closing it
			// is safe and lets the drain goroutine finish the backlog and
			// exit.
			close(s.q)
			<-s.done
		})
	}
	var once sync.Once
	cancelAll := callAll(cancels)
	return func() { once.Do(cancelAll) }
}

func callAll(fns []func()) func() {
	return func() {
		for _, fn := range fns {
			fn()
		}
	}
}

// add installs s and returns the function that removes it.
func (sh *busShard) add(s *subscription) (remove func()) {
	sh.mu.Lock()
	s.id = sh.nextSub
	sh.nextSub++
	sh.subs[s.id] = s
	sh.mu.Unlock()
	return func() {
		sh.mu.Lock()
		delete(sh.subs, s.id)
		sh.mu.Unlock()
	}
}

// drain is the per-queued-subscriber delivery loop.
func (sh *busShard) drain(s *subscription) {
	defer close(s.done)
	for ev := range s.q {
		sh.queued.Add(-1)
		if s.filter != nil && !s.filter(ev) {
			continue
		}
		s.fn(ev)
		sh.delivered.Add(1)
	}
}

// Publish delivers an event to every matching subscriber of the topic's
// shard and returns the number of deliveries (for a queued subscriber, a
// successful enqueue counts as a delivery; the callback runs
// asynchronously). Inline subscribers are called synchronously in
// subscription order; queued subscribers are enqueued under the
// sequencing lock, so each queue receives events in Seq order, and a full
// queue drops the event rather than stalling the publisher.
func (b *Bus) Publish(topic string, payload values.Value) int {
	sh := b.shard(topic)
	sh.mu.Lock()
	sh.nextSeq++
	ev := Event{Topic: topic, Payload: payload, Seq: sh.nextSeq}
	var inline []*subscription
	n, stalled := 0, false
	for _, s := range sh.subs {
		if s.topic != "" && s.topic != topic {
			continue
		}
		if s.q == nil {
			inline = append(inline, s)
			continue
		}
		select {
		case s.q <- ev:
			sh.queued.Add(1)
			n++
		default:
			sh.dropped.Add(1)
			stalled = true
		}
	}
	sort.Slice(inline, func(i, j int) bool { return inline[i].id < inline[j].id })
	sh.mu.Unlock()
	sh.published.Add(1)
	if stalled {
		sh.stalls.Add(1)
	}

	ni := 0
	for _, s := range inline {
		if s.filter != nil && !s.filter(ev) {
			continue
		}
		s.fn(ev)
		ni++
	}
	// Atomic counters spare Publish a second lock round trip for the
	// delivery count (and keep Stats race-free against publishers).
	sh.delivered.Add(uint64(ni))
	return n + ni
}

// BusStats is the bus's counter snapshot, including the bounded-queue
// accounting: Dropped counts events discarded at full subscriber queues,
// Stalls counts publishes that found at least one queue full, and Queued
// is the number of events currently sitting in subscriber queues.
type BusStats struct {
	Published uint64
	Delivered uint64
	Dropped   uint64
	Stalls    uint64
	Queued    int64
}

// stats is one shard's counter snapshot.
func (sh *busShard) stats() BusStats {
	return BusStats{
		Published: sh.published.Load(),
		Delivered: sh.delivered.Load(),
		Dropped:   sh.dropped.Load(),
		Stalls:    sh.stalls.Load(),
		Queued:    sh.queued.Load(),
	}
}

// Instrument makes every shard's counters readable through m, under
// bus.<shard>.* (bus.b3.queued, bus.b3.dropped, …); a nil m is a no-op.
func (b *Bus) Instrument(m *mgmt.Management) {
	mgmt.Read(m, "bus.", func() map[string]BusStats {
		out := make(map[string]BusStats, len(b.shards))
		for _, sh := range b.shards {
			out[sh.name] = sh.stats()
		}
		return out
	})
}
