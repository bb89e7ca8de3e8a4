package mgmt

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeNilAndBasic(t *testing.T) {
	var nc *Counter
	nc.Inc()
	nc.Add(7)
	if nc.Load() != 0 {
		t.Fatalf("nil counter Load = %d", nc.Load())
	}
	c := &Counter{}
	c.Inc()
	c.Add(2)
	if c.Load() != 3 {
		t.Fatalf("counter = %d, want 3", c.Load())
	}

	var ng *Gauge
	ng.Add(1)
	if ng.Load() != 0 {
		t.Fatalf("nil gauge Load = %d", ng.Load())
	}
	g := &Gauge{}
	g.Add(5)
	g.Add(-2)
	if g.Load() != 3 {
		t.Fatalf("gauge = %d, want 3", g.Load())
	}
}

// TestHistogramQuantileBound checks the quantile estimate's contract: it
// is an upper bound on the true quantile, within the 2x relative error
// the log-spaced buckets allow.
func TestHistogramQuantileBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 10; round++ {
		h := &Histogram{}
		vals := make([]uint64, 500)
		for i := range vals {
			vals[i] = uint64(rng.Intn(1_000_000)) + 1
			h.Observe(vals[i])
		}
		s := h.Snapshot()
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			est := s.Quantile(q)
			// True quantile by sorting a copy.
			sorted := append([]uint64(nil), vals...)
			for i := 1; i < len(sorted); i++ {
				for j := i; j > 0 && sorted[j-1] > sorted[j]; j-- {
					sorted[j-1], sorted[j] = sorted[j], sorted[j-1]
				}
			}
			truth := sorted[int(q*float64(len(sorted)-1))]
			if est < truth {
				t.Fatalf("q%.2f estimate %d below true value %d", q, est, truth)
			}
			if est > 2*truth {
				t.Fatalf("q%.2f estimate %d beyond 2x true value %d", q, est, truth)
			}
		}
	}
}

func TestHistogramEmptyAndNil(t *testing.T) {
	var nh *Histogram
	nh.Observe(5)
	nh.ObserveDuration(time.Second)
	s := nh.Snapshot()
	if s.Count != 0 || s.Quantile(0.99) != 0 || s.Mean() != 0 {
		t.Fatalf("nil histogram snapshot not empty: %+v", s)
	}
	h := &Histogram{}
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %d", got)
	}
	h.ObserveDuration(-time.Second) // clamps to 0
	if got := h.Snapshot().Count; got != 1 {
		t.Fatalf("count after clamped observation = %d", got)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(uint64(rng.Intn(1 << 20)))
			}
		}(int64(w))
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
}

func TestRegistryResolvesAndDumps(t *testing.T) {
	r := NewRegistry()
	if c1, c2 := r.Counter("a"), r.Counter("a"); c1 != c2 {
		t.Fatal("same name resolved to different counters")
	}
	r.Counter("z.count").Add(3)
	r.Gauge("depth").Add(-4)
	r.Histogram("lat").Observe(1000)
	dump := r.Dump()
	for _, want := range []string{"z.count", "depth", "lat", "counter", "gauge", "histogram"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q:\n%s", want, dump)
		}
	}

	var nr *Registry
	if nr.Counter("x") != nil || nr.Gauge("x") != nil || nr.Histogram("x") != nil {
		t.Fatal("nil registry must resolve nil instruments")
	}
	if nr.Dump() == "" {
		t.Fatal("nil registry dump empty")
	}
}

// TestDumpHistogramUnits: histogram values are dimensionless, so only a
// histogram named *_ns renders as a duration; a count renders as itself
// (before, frames_per_write = 3 printed as 0s).
func TestDumpHistogramUnits(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 3; i++ {
		r.Histogram("x.frames_per_write").Observe(3)
		r.Histogram("x.rtt_ns").Observe(3 * uint64(time.Millisecond))
	}
	lines := dumpLines(r)
	if got := lines["x.frames_per_write"]; !strings.Contains(got, " p50=3 ") || !strings.Contains(got, "mean=3.0 ") {
		t.Errorf("frames_per_write line = %q, want p50=3 and mean=3.0", got)
	}
	if got := lines["x.rtt_ns"]; !strings.Contains(got, "ms") || strings.Contains(got, "p50=3 ") {
		t.Errorf("rtt_ns line = %q, want durations", got)
	}
}

// readStats exercises every field kind Read meets.
type readStats struct {
	FlowTypeErrors uint64
	RTTNs          uint32
	Open           int
	Queued         int64
	Ratio          float64
	Name           string
	hidden         uint64
}

// TestReadFlattensStats: a Read source's exported integer fields appear
// in the dump under prefix+snake_case(field), unsigned as counters and
// signed as gauges; every other field is skipped.
func TestReadFlattensStats(t *testing.T) {
	m := New()
	Read(m, "x.", func() readStats {
		return readStats{FlowTypeErrors: 7, RTTNs: 9, Open: 2, Queued: -1, Ratio: 0.5, Name: "n", hidden: 4}
	})
	lines := dumpLines(m.Registry)
	for _, tc := range []struct{ name, kind, value string }{
		{"x.flow_type_errors", "counter", "7"},
		{"x.rtt_ns", "counter", "9"},
		{"x.open", "gauge", "2"},
		{"x.queued", "gauge", "-1"},
	} {
		f := strings.Fields(lines[tc.name])
		if len(f) != 3 || f[0] != tc.kind || f[2] != tc.value {
			t.Errorf("%s: line %q, want %s %s", tc.name, lines[tc.name], tc.kind, tc.value)
		}
	}
	for _, skipped := range []string{"x.ratio", "x.name", "x.hidden"} {
		if line, ok := lines[skipped]; ok {
			t.Errorf("%s dumped: %q", skipped, line)
		}
	}
	if len(lines) != 4 {
		t.Errorf("dump has %d lines, want 4:\n%s", len(lines), m.Registry.Dump())
	}
}

func TestSnakeCase(t *testing.T) {
	for in, want := range map[string]string{
		"FlowTypeErrors": "flow_type_errors",
		"RTTNs":          "rtt_ns",
		"Open":           "open",
		"OneWays":        "one_ways",
		"ShardsQueried":  "shards_queried",
		"ID":             "id",
	} {
		if got := snake(in); got != want {
			t.Errorf("snake(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestReadReplacesAndNil: registering a prefix again replaces the earlier
// source (a restarted component does not print twice), and a nil domain
// is a no-op.
func TestReadReplacesAndNil(t *testing.T) {
	m := New()
	Read(m, "node.", func() struct{ Calls uint64 } { return struct{ Calls uint64 }{1} })
	Read(m, "node.", func() struct{ Calls uint64 } { return struct{ Calls uint64 }{2} })
	if got := dumpLines(m.Registry)["node.calls"]; !strings.HasSuffix(got, " 2") {
		t.Errorf("node.calls = %q, want the second source's 2", got)
	}
	if n := strings.Count(m.Registry.Dump(), "node.calls"); n != 1 {
		t.Errorf("node.calls printed %d times", n)
	}
	Read(nil, "node.", func() struct{ Calls uint64 } { return struct{ Calls uint64 }{3} })
}

// memberStats is one member of a keyed Read source.
type memberStats struct {
	Probes uint64
	State  int32
	RTTNs  HistogramSnapshot
}

// TestReadMapSource: a source returning a map prints each member as
// <prefix><key>.<field> — a dotted key stays whole, a histogram snapshot
// prints as a histogram — and a member that leaves the map leaves the dump.
func TestReadMapSource(t *testing.T) {
	m := New()
	var rtt Histogram
	rtt.Observe(2_000_000)
	members := map[string]memberStats{
		"n1":            {Probes: 3},
		"10.0.0.2:9000": {Probes: 8, State: 2, RTTNs: rtt.Snapshot()},
	}
	Read(m, "health.", func() map[string]memberStats { return members })
	lines := dumpLines(m.Registry)
	for _, tc := range []struct{ name, kind, value string }{
		{"health.n1.probes", "counter", "3"},
		{"health.n1.state", "gauge", "0"},
		{"health.10.0.0.2:9000.probes", "counter", "8"},
		{"health.10.0.0.2:9000.state", "gauge", "2"},
		{"health.10.0.0.2:9000.rtt_ns", "histogram", "n=1"},
	} {
		f := strings.Fields(lines[tc.name])
		if len(f) < 3 || f[0] != tc.kind || f[2] != tc.value {
			t.Errorf("%s: line %q, want %s %s", tc.name, lines[tc.name], tc.kind, tc.value)
		}
	}
	delete(members, "n1")
	if dump := m.Registry.Dump(); strings.Contains(dump, "health.n1.") {
		t.Errorf("a departed member is still shown:\n%s", dump)
	}
}

// TestReadSourceMayResolveInstruments: Dump calls sources outside the
// registry lock, so a source may resolve an instrument (as a component
// holding its own lock may) without deadlocking.
func TestReadSourceMayResolveInstruments(t *testing.T) {
	m := New()
	Read(m, "y.", func() struct{ Reads uint64 } {
		m.Registry.Counter("y.resolved").Inc()
		return struct{ Reads uint64 }{1}
	})
	done := make(chan string)
	go func() { done <- m.Registry.Dump() }()
	select {
	case dump := <-done:
		if !strings.Contains(dump, "y.reads") {
			t.Fatalf("dump lacks the source:\n%s", dump)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Dump deadlocked on a source that resolves an instrument")
	}
}

// dumpLines indexes a registry dump by metric name.
func dumpLines(r *Registry) map[string]string {
	out := map[string]string{}
	for _, line := range strings.Split(r.Dump(), "\n") {
		if f := strings.Fields(line); len(f) >= 3 {
			out[f[1]] = line
		}
	}
	return out
}
