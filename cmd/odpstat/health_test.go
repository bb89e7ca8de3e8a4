package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/mgmt"
	"repro/internal/policy"
)

// TestRenderHealth feeds a real Registry dump — read from the same Stats
// types the detector and a host's breaker set report, under the prefixes
// the odp facade registers — through the client-side renderer and checks
// the table rows.
func TestRenderHealth(t *testing.T) {
	m := mgmt.New()

	var rtt mgmt.Histogram
	rtt.Observe(250_000)
	mgmt.Read(m, "health.", func() map[string]health.EndpointStats {
		return map[string]health.EndpointStats{
			"n1": {State: health.Alive, Probes: 120, Transitions: 1, WindowRTTNs: 250_000, RTTNs: rtt.Snapshot()},
			// A dotted watch key must not split wrong.
			"10.0.0.2:9000": {State: health.Dead, Suspicion: 1000, Probes: 80, Misses: 7, MissRun: 6, Transitions: 2, WindowRTTNs: 1_500_000},
		}
	})

	tripped := policy.NewBreakerSet(policy.BreakerConfig{ConsecutiveFailures: 1, OpenFor: time.Hour})
	tripped.For("sim://a").Record(false)
	for i := 0; i < 14; i++ {
		tripped.For("sim://a").Allow()
	}
	mgmt.Read(m, "policy.client.breaker.", tripped.Stats)
	quiet := policy.NewBreakerSet(policy.BreakerConfig{})
	quiet.For("sim://b").Record(true)
	mgmt.Read(m, "policy.t.breaker.", quiet.Stats)

	out := renderHealth(m.Registry.Dump())

	for _, row := range []string{"endpoint", "breakers"} {
		if !strings.Contains(out, row) {
			t.Fatalf("missing %q header in:\n%s", row, out)
		}
	}
	lines := strings.Split(out, "\n")
	find := func(prefix string) string {
		t.Helper()
		for _, l := range lines {
			if strings.HasPrefix(l, prefix) {
				return l
			}
		}
		t.Fatalf("no row starting %q in:\n%s", prefix, out)
		return ""
	}

	// endpoint, state, suspicion, probes, misses, miss run, transitions,
	// window RTT, then the RTT histogram.
	if l := find("n1 "); !strings.HasPrefix(strings.Join(strings.Fields(l), " "), "n1 alive 0.0% 120 0 0 1 250µs ") ||
		!strings.Contains(l, "p50") {
		t.Fatalf("n1 row wrong: %q", l)
	}
	if l := strings.Join(strings.Fields(find("10.0.0.2:9000 ")), " "); !strings.HasPrefix(l, "10.0.0.2:9000 dead 100.0% 80 7 6 2 1.5ms ") {
		t.Fatalf("dotted-endpoint row wrong: %q", l)
	}
	if l := strings.Fields(find("client ")); strings.Join(l[1:], " ") != "1 1 0 0 14" {
		t.Fatalf("client breaker row wrong: %q", l)
	}
	if l := strings.Fields(find("t ")); strings.Join(l[1:], " ") != "0 0 0 0 0" {
		t.Fatalf("quiet breaker row wrong: %q", l)
	}

	// No health instruments at all: a hint, not an empty table.
	if out := renderHealth("counter   chan.invocations    9\n"); !strings.Contains(out, "failure detector") {
		t.Fatalf("empty-dump rendering = %q", out)
	}
}
