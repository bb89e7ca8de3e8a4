// Package coordination implements the ODP coordination functions of
// Section 8.2 of the tutorial: event notification, groups and
// replication, and checkpoint-and-recovery (deactivation/reactivation and
// migration being provided by package engineering, and transactions by
// package transactions).
package coordination

import (
	"fmt"
	"slices"
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

// Bus is the event-notification function: typed publish/subscribe at any
// shard count. Each topic is routed to one shard by consistent hash — the
// ring the trader and relocator shard with — so publishers on unrelated
// topics do not contend on one sequencing lock; the singleton (NewBus) is
// the one-shard case, which routes without touching the ring. Routing
// depends only on the ring's membership, not on join order or ring epoch,
// and membership is fixed at construction (which makes lock-free routing
// reads sound). A Bus is safe for concurrent use.
//
// Delivery is synchronous: Publish calls every matching subscriber, in
// subscription order, before it returns, so a slow subscriber holds up its
// publisher. A subscriber that wants only some events tests them in its
// callback. A callback may publish, subscribe and cancel: the shard's lock
// is not held while it runs.
//
// Ordering: Seq numbers are per shard. One publisher's events on a shard
// reach a subscriber in Seq order; events from concurrent publishers may
// reach it in either order. An event a callback publishes is delivered
// before that callback returns, so the subscribers after it see the nested
// event before the one that caused it. A wildcard ("" topic) subscriber is
// fanned out to every shard, with no ordering defined across shards.
type Bus struct {
	ring   *hashring.Ring
	shards []*busShard // in ShardNames order
	byName map[string]*busShard
}

// busShard is one sequencing domain: its own lock, Seq counter,
// subscribers and counters.
type busShard struct {
	name string

	mu      sync.Mutex
	nextSeq uint64
	// subs is copy-on-write, in subscription order: a publisher reads it
	// under mu and delivers from it after unlocking, so Subscribe and
	// cancel store a new array rather than write one a publisher may hold.
	subs []*subscription

	published atomic.Uint64
	delivered atomic.Uint64
}

type subscription struct {
	topic string // "" matches every topic
	fn    func(Event)
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
		sh := &busShard{name: name}
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
// on every shard). The returned function cancels the subscription; a
// second call does nothing.
func (b *Bus) Subscribe(topic string, fn func(Event)) (cancel func()) {
	s := &subscription{topic: topic, fn: fn}
	shards := b.shards
	if topic != "" {
		shards = []*busShard{b.shard(topic)}
	}
	for _, sh := range shards {
		sh.mu.Lock()
		sh.subs = append(slices.Clip(sh.subs), s)
		sh.mu.Unlock()
	}
	return func() {
		for _, sh := range shards {
			sh.remove(s)
		}
	}
}

// remove stores a copy of the shard's subscribers without s, if s is
// among them.
func (sh *busShard) remove(s *subscription) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if i := slices.Index(sh.subs, s); i >= 0 {
		sh.subs = slices.Concat(sh.subs[:i], sh.subs[i+1:])
	}
}

// Publish delivers an event to every matching subscriber of the topic's
// shard, synchronously and in subscription order, and returns the number
// of deliveries. A subscription made or cancelled while it delivers does
// not change whom this event reaches.
func (b *Bus) Publish(topic string, payload values.Value) int {
	sh := b.shard(topic)
	sh.mu.Lock()
	sh.nextSeq++
	ev := Event{Topic: topic, Payload: payload, Seq: sh.nextSeq}
	subs := sh.subs
	sh.mu.Unlock()
	sh.published.Add(1)

	n := 0
	for _, s := range subs {
		if s.topic == "" || s.topic == topic {
			s.fn(ev)
			n++
		}
	}
	// Atomic counters spare Publish a second lock round trip for the
	// delivery count (and keep Instrument's reads race-free).
	sh.delivered.Add(uint64(n))
	return n
}

// BusStats is one shard's counter snapshot.
type BusStats struct {
	Published uint64
	Delivered uint64
}

func (sh *busShard) stats() BusStats {
	return BusStats{Published: sh.published.Load(), Delivered: sh.delivered.Load()}
}

// Instrument makes every shard's counters readable through m, under
// bus.<shard>.* (bus.b3.published, bus.b3.delivered); a nil m is a no-op.
func (b *Bus) Instrument(m *mgmt.Management) {
	mgmt.Read(m, "bus.", func() map[string]BusStats {
		out := make(map[string]BusStats, len(b.shards))
		for _, sh := range b.shards {
			out[sh.name] = sh.stats()
		}
		return out
	})
}
