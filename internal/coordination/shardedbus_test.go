package coordination

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/hashring"
	"repro/internal/mgmt"
	"repro/internal/values"
)

// dumped is the value Management's dump shows for a counter or gauge.
func dumped(t *testing.T, m *mgmt.Management, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(m.Registry.Dump(), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[1] == name {
			v, err := strconv.ParseInt(f[2], 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no %s in the management dump", name)
	return 0
}

// Topic routing is a pure function of the ring's membership: the same
// topic lands on the same shard regardless of the order members joined
// or how many epochs the ring has been through.
func TestShardedBusRoutingStableAcrossEpochs(t *testing.T) {
	sb := NewShardedBus(4)
	topics := make([]string, 64)
	for i := range topics {
		topics[i] = fmt.Sprintf("topic-%d", i)
	}

	// A second front-end with identical membership routes identically.
	sb2 := NewShardedBus(4)
	for _, topic := range topics {
		if a, b := sb.ShardFor(topic), sb2.ShardFor(topic); a != b {
			t.Fatalf("routing differs between identical buses: %s -> %s vs %s", topic, a, b)
		}
	}

	// A ring that reached the same membership through extra epochs
	// (members added in reverse, a transient member added and removed)
	// owns every topic identically.
	ring := hashring.New()
	for i := 3; i >= 0; i-- {
		ring.Add(fmt.Sprintf("b%d", i))
	}
	ring.Add("transient")
	ring.Remove("transient")
	if ring.Epoch() < 6 {
		t.Fatalf("ring epochs did not advance: %d", ring.Epoch())
	}
	for _, topic := range topics {
		if a, b := sb.ShardFor(topic), ring.Owner(topic); a != b {
			t.Fatalf("routing depends on ring history: %s -> %s vs %s", topic, a, b)
		}
	}

	// And the mapping actually spreads topics over multiple shards.
	used := map[string]bool{}
	for _, topic := range topics {
		used[sb.ShardFor(topic)] = true
	}
	if len(used) < 2 {
		t.Fatalf("64 topics all routed to one shard: %v", used)
	}
}

// Publishing and topic subscription agree on placement: a subscriber on
// a topic receives every event published on it, with per-topic total
// order (the topic's shard assigns Seq).
func TestShardedBusTopicDelivery(t *testing.T) {
	sb := NewShardedBus(4)
	var mu sync.Mutex
	got := map[string][]uint64{}
	var cancels []func()
	topics := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for _, topic := range topics {
		topic := topic
		cancels = append(cancels, sb.Subscribe(topic, func(ev Event) {
			mu.Lock()
			got[topic] = append(got[topic], ev.Seq)
			mu.Unlock()
		}))
	}
	const per = 20
	for i := 0; i < per; i++ {
		for _, topic := range topics {
			if n := sb.Publish(topic, values.Int(int64(i))); n == 0 {
				t.Fatalf("Publish(%s): no subscriber received it", topic)
			}
		}
	}
	for _, c := range cancels {
		c()
	}
	for _, topic := range topics {
		seqs := got[topic]
		if len(seqs) != per {
			t.Fatalf("topic %s: received %d events, want %d", topic, len(seqs), per)
		}
		for i := 1; i < len(seqs); i++ {
			if seqs[i] <= seqs[i-1] {
				t.Fatalf("topic %s: seq order violated: %v", topic, seqs)
			}
		}
	}
	if st := totals(sb); st.Published != uint64(per*len(topics)) || st.Delivered != uint64(per*len(topics)) {
		t.Fatalf("Stats = %+v, want %d published and delivered", st, per*len(topics))
	}
}

// A wildcard ("" topic) subscriber is fanned out to every shard: it
// receives every event exactly once, and within each shard the Seq
// numbers it observes are monotonic (cross-shard interleaving is
// unspecified).
func TestShardedBusWildcardSeesAllShards(t *testing.T) {
	sb := NewShardedBus(4)
	type rec struct {
		shard string
		seq   uint64
		topic string
	}
	var mu sync.Mutex
	var events []rec
	cancel := sb.Subscribe("", func(ev Event) {
		mu.Lock()
		events = append(events, rec{shard: sb.ShardFor(ev.Topic), seq: ev.Seq, topic: ev.Topic})
		mu.Unlock()
	})

	topics := make([]string, 32)
	shardsHit := map[string]bool{}
	for i := range topics {
		topics[i] = fmt.Sprintf("topic-%d", i)
		shardsHit[sb.ShardFor(topics[i])] = true
	}
	if len(shardsHit) != 4 {
		t.Fatalf("test topics cover %d shards, want 4", len(shardsHit))
	}
	const per = 10
	for i := 0; i < per; i++ {
		for _, topic := range topics {
			sb.Publish(topic, values.Int(int64(i)))
		}
	}
	cancel()

	if len(events) != per*len(topics) {
		t.Fatalf("wildcard received %d events, want %d", len(events), per*len(topics))
	}
	lastSeq := map[string]uint64{}
	for _, e := range events {
		if e.seq <= lastSeq[e.shard] {
			t.Fatalf("per-shard seq not monotonic on %s: %d after %d", e.shard, e.seq, lastSeq[e.shard])
		}
		lastSeq[e.shard] = e.seq
	}

}

// A many-shard bus sums its stats across shards and shows each shard's
// counters through Management.
func TestShardedBusStatsAndInstruments(t *testing.T) {
	sb := NewShardedBus(2)
	m := mgmt.New()
	sb.Instrument(m)
	var seen int
	cancel := sb.Subscribe("", func(Event) { seen++ })
	sb.Publish("a", values.Int(1))
	sb.Publish("b", values.Int(2))
	cancel()
	if seen != 2 {
		t.Fatalf("wildcard saw %d events, want 2", seen)
	}
	if st := totals(sb); st.Published != 2 {
		t.Fatalf("Stats.Published = %d, want 2", st.Published)
	}
	var published int64
	for _, name := range sb.ShardNames() {
		published += dumped(t, m, "bus."+name+".published")
	}
	if published != 2 {
		t.Fatalf("per-shard published counters sum to %d, want 2", published)
	}
}

// TestBusOneShardAndManyShardsAgree is the bus's differential oracle, the
// counterpart of the trader's TestSingletonOneShardAndManyShardsAgree: one
// script of named-topic and wildcard subscriptions, publishes and a cancel
// runs against the singleton, a one-shard and a four-shard bus. Every
// subscriber's per-topic delivery sequence and the final Stats are
// identical across the three; the singleton and the one-shard bus also
// agree on every Seq; and a wildcard subscriber sees each shard's events
// in that shard's Seq order.
func TestBusOneShardAndManyShardsAgree(t *testing.T) {
	type delivery struct {
		payload int64
		seq     uint64
	}
	type outcome struct {
		got   map[string][]delivery // "subscriber/topic" -> deliveries in arrival order
		stats BusStats
	}
	topics := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}

	run := func(t *testing.T, b *Bus) outcome {
		var mu sync.Mutex
		got := map[string][]delivery{}
		lastSeq := map[string]uint64{} // "subscriber/shard" -> last Seq seen
		record := func(sub string) func(Event) {
			return func(ev Event) {
				n, _ := ev.Payload.AsInt()
				mu.Lock()
				defer mu.Unlock()
				got[sub+"/"+ev.Topic] = append(got[sub+"/"+ev.Topic], delivery{n, ev.Seq})
				k := sub + "/" + b.ShardFor(ev.Topic)
				if ev.Seq <= lastSeq[k] {
					t.Errorf("%s: seq %d after %d on one shard", k, ev.Seq, lastSeq[k])
				}
				lastSeq[k] = ev.Seq
			}
		}

		var cancels []func()
		for _, topic := range topics {
			cancels = append(cancels, b.Subscribe(topic, record("named")))
		}
		cancels = append(cancels, b.Subscribe("", record("wildcard")))
		cancelDelta := b.Subscribe("delta", record("cancelled"))

		publishAll := func(from, to int64) {
			for n := from; n < to; n++ {
				for _, topic := range topics {
					b.Publish(topic, values.Int(n))
				}
			}
		}
		publishAll(0, 10)
		cancelDelta()
		publishAll(10, 20)
		if b.Publish("nobody-listens-by-name", values.Int(0)) == 0 {
			t.Error("Publish with a wildcard subscriber reached nobody")
		}

		for _, c := range cancels {
			c()
		}
		if b.Publish("alpha", values.Int(0)) != 0 {
			t.Error("a delivery after every subscription was cancelled")
		}
		return outcome{got: got, stats: totals(b)}
	}

	fourBus, hit := NewShardedBus(4), map[string]bool{}
	for _, topic := range topics {
		hit[fourBus.ShardFor(topic)] = true
	}
	if len(hit) != 4 {
		t.Fatalf("script topics cover %d of 4 shards", len(hit))
	}
	single, one, four := run(t, NewBus()), run(t, NewShardedBus(1)), run(t, fourBus)
	// 120 named + 121 wildcard (the unnamed topic too) + 10 before the cancel.
	if st := single.stats; st.Published != 122 || st.Delivered != 251 {
		t.Fatalf("singleton stats = %+v, want 122 published, 251 delivered", st)
	}
	payloads := func(ds []delivery) []int64 {
		out := make([]int64, len(ds))
		for i, d := range ds {
			out[i] = d.payload
		}
		return out
	}
	for name, o := range map[string]outcome{"one shard": one, "four shards": four} {
		if o.stats != single.stats {
			t.Errorf("%s: stats = %+v, singleton has %+v", name, o.stats, single.stats)
		}
		if len(o.got) != len(single.got) {
			t.Errorf("%s: %d subscriber/topic sequences, singleton has %d", name, len(o.got), len(single.got))
		}
		for k, want := range single.got {
			if g, w := fmt.Sprint(payloads(o.got[k])), fmt.Sprint(payloads(want)); g != w {
				t.Errorf("%s: %s received %s, singleton's received %s", name, k, g, w)
			}
		}
	}
	for k, want := range single.got {
		if g, w := fmt.Sprint(one.got[k]), fmt.Sprint(want); g != w {
			t.Errorf("one shard: %s (payload, Seq) = %s, singleton's = %s", k, g, w)
		}
	}
}
