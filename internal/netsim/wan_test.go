package netsim

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestComposeProfiles(t *testing.T) {
	got := Compose(
		LinkProfile{Latency: time.Millisecond, Jitter: 100 * time.Microsecond, DropRate: 0.1, Bandwidth: 1 << 20},
		LinkProfile{Latency: 30 * time.Millisecond, Jitter: 3 * time.Millisecond, DropRate: 0.2, DupRate: 0.5},
		LinkProfile{Latency: time.Millisecond, Bandwidth: 1 << 16},
	)
	if got.Latency != 32*time.Millisecond {
		t.Fatalf("latency = %v, want 32ms", got.Latency)
	}
	if got.Jitter != 3100*time.Microsecond {
		t.Fatalf("jitter = %v, want 3.1ms", got.Jitter)
	}
	// Survival across segments: (1-0.1)(1-0.2)(1-0) = 0.72 ⇒ drop 0.28.
	if !near(got.DropRate, 0.28) {
		t.Fatalf("drop = %v, want 0.28", got.DropRate)
	}
	if !near(got.DupRate, 0.5) {
		t.Fatalf("dup = %v, want 0.5", got.DupRate)
	}
	if got.Bandwidth != 1<<16 {
		t.Fatalf("bandwidth = %d, want tightest segment (%d)", got.Bandwidth, 1<<16)
	}
	if z := Compose(); z != (LinkProfile{}) {
		t.Fatalf("empty composition = %+v, want zero profile", z)
	}
}

func TestScaleProfile(t *testing.T) {
	p := LinkProfile{Latency: 80 * time.Millisecond, Jitter: 8 * time.Millisecond, DropRate: 0.005, Bandwidth: 42}
	s := Scale(p, 0.25)
	if s.Latency != 20*time.Millisecond || s.Jitter != 2*time.Millisecond {
		t.Fatalf("scaled delays = %v/%v, want 20ms/2ms", s.Latency, s.Jitter)
	}
	if s.DropRate != p.DropRate || s.Bandwidth != p.Bandwidth {
		t.Fatal("Scale must not touch loss or bandwidth")
	}
}

func TestSetLinkHostsAsymmetric(t *testing.T) {
	n := New(1)
	fwd := LinkProfile{Latency: 40 * time.Millisecond}
	rev := LinkProfile{Latency: 10 * time.Millisecond}
	n.SetLinkHosts([]string{"w1", "w2"}, []string{"e1", "w2"}, fwd, rev)
	for _, a := range []string{"w1", "w2"} {
		if got := n.linkFor(a, "e1"); got != fwd {
			t.Fatalf("%s→e1 = %+v, want forward", a, got)
		}
		if got := n.linkFor("e1", a); got != rev {
			t.Fatalf("e1→%s = %+v, want reverse", a, got)
		}
	}
	// The overlapping name must be skipped, not self-linked.
	if got := n.linkFor("w2", "w2"); got != (LinkProfile{}) {
		t.Fatalf("self link installed: %+v", got)
	}
	n.ClearLinkHosts([]string{"w1", "w2"}, []string{"e1", "w2"})
	if got := n.linkFor("w1", "e1"); got != (LinkProfile{}) {
		t.Fatalf("link survives clear: %+v", got)
	}
}

// TestChaosDomainFaults: "dom:<name>" faults fan out across the domain's
// members — a crash takes every member, a partition splits the domains
// pairwise, and an asymmetric FaultLink installs Profile/Reverse per
// direction.
func TestChaosDomainFaults(t *testing.T) {
	n := New(1)
	var crashed, restarted []string
	c := NewChaos(n, ChaosConfig{
		Domains: map[string][]string{
			"west": {"w1", "w2"},
			"east": {"e1"},
		},
		Crash:   func(h string) error { crashed = append(crashed, h); return nil },
		Restart: func(h string) error { restarted = append(restarted, h); return nil },
	}, Script{
		{At: 0, Fault: Fault{Kind: FaultLink, A: "dom:west", B: "dom:east",
			Profile: LinkProfile{Latency: 80 * time.Millisecond},
			Reverse: &LinkProfile{Latency: 20 * time.Millisecond}}},
		{At: time.Millisecond, Fault: Fault{Kind: FaultPartition, A: "dom:west", B: "dom:east"}},
		{At: 2 * time.Millisecond, Fault: Fault{Kind: FaultHeal, A: "dom:west", B: "dom:east"}},
		{At: 3 * time.Millisecond, Fault: Fault{Kind: FaultLinkClear, A: "dom:west", B: "dom:east"}},
		{At: 4 * time.Millisecond, Fault: Fault{Kind: FaultCrash, A: "dom:west"}},
		{At: 5 * time.Millisecond, Fault: Fault{Kind: FaultRestart, A: "dom:west"}},
		{At: 6 * time.Millisecond, Fault: Fault{Kind: FaultCrash, A: "dom:nosuch"}},
	})

	c.Advance(time.Millisecond / 2)
	for _, w := range []string{"w1", "w2"} {
		if got := n.linkFor(w, "e1"); got.Latency != 80*time.Millisecond {
			t.Fatalf("%s→e1 latency = %v, want 80ms", w, got.Latency)
		}
		if got := n.linkFor("e1", w); got.Latency != 20*time.Millisecond {
			t.Fatalf("e1→%s latency = %v, want 20ms (Reverse)", w, got.Latency)
		}
	}

	c.Advance(time.Millisecond)
	if !n.partitioned("w1", "e1") || !n.partitioned("w2", "e1") {
		t.Fatal("domain partition incomplete")
	}
	if n.partitioned("w1", "w2") {
		t.Fatal("intra-domain pair partitioned")
	}

	c.Advance(3 * time.Millisecond)
	if n.partitioned("w1", "e1") || n.partitioned("w2", "e1") {
		t.Fatal("domain heal incomplete")
	}
	if got := n.linkFor("w1", "e1"); got != (LinkProfile{}) {
		t.Fatalf("domain link-clear incomplete: %+v", got)
	}

	c.Advance(4 * time.Millisecond)
	if len(crashed) != 2 || crashed[0] != "w1" || crashed[1] != "w2" {
		t.Fatalf("crashed = %v, want [w1 w2]", crashed)
	}

	// A domain restart revives every member, in order.
	c.Advance(5 * time.Millisecond)
	if len(restarted) != 2 || restarted[0] != "w1" || restarted[1] != "w2" {
		t.Fatalf("restarted = %v, want [w1 w2]", restarted)
	}

	// An unknown domain name falls back to the literal host string.
	c.Advance(time.Second)
	if crashed[len(crashed)-1] != "dom:nosuch" {
		t.Fatalf("unknown domain crash target = %q", crashed[len(crashed)-1])
	}
	if !c.Done() {
		t.Fatal("script not exhausted")
	}
}
