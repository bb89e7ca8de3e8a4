package netsim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// This file is the chaos harness: a deterministic, scripted fault
// timeline played against a simulated network. The failure modes the
// distribution transparencies exist to mask (Section 7 of the tutorial)
// do not occur on demand in a healthy sim, so experiments inject them
// from a Script — node crashes and restarts, link flaps, partitions and
// heals, latency spikes, bandwidth squeezes — at fixed offsets on the
// harness clock. All randomness (wildcard host picks) comes from one
// seeded RNG, so the same seed and script always produce the same event
// log, byte for byte.

// FaultKind enumerates the scripted fault types.
type FaultKind int

// The fault vocabulary. Crash and Restart act on one host (A); the link
// faults act on the ordered-insensitive pair (A, B).
const (
	// FaultCrash kills host A: its listener is torn down (new dials fail
	// with ErrNoSuchHost), its established connections are severed, and
	// the harness's Crash hook runs for process-level teardown.
	FaultCrash FaultKind = iota
	// FaultRestart brings host A back via the harness's Restart hook,
	// which is expected to listen again and recover state (checkpoint
	// recovery, relocation — whatever the system under test provides).
	FaultRestart
	// FaultPartition splits hosts A and B (both directions).
	FaultPartition
	// FaultHeal removes the A–B partition.
	FaultHeal
	// FaultLink installs Profile on the A–B link — both directions, or
	// asymmetrically when Fault.Reverse is set: a latency spike, a lossy
	// patch, a slow-drip bandwidth squeeze.
	FaultLink
	// FaultLinkClear removes the explicit A–B profile, restoring the
	// network default.
	FaultLinkClear
)

func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultRestart:
		return "restart"
	case FaultPartition:
		return "partition"
	case FaultHeal:
		return "heal"
	case FaultLink:
		return "link"
	case FaultLinkClear:
		return "link-clear"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Fault is one injectable failure. Host "*" in A picks uniformly from
// the config's Hosts with the harness RNG — "crash any node"; a "*"
// restart revives the most recently crashed host, so crash/restart
// pairs stay matched. A host of the form "dom:<name>" expands to the
// members of that federated domain (ChaosConfig.Domains): a crash takes
// the whole domain down, a partition splits the two domains pairwise.
// The event log records the resolved names (wildcards pinned, domains
// kept symbolic).
type Fault struct {
	Kind    FaultKind
	A, B    string
	Profile LinkProfile // FaultLink only
	// Reverse, when set on a FaultLink, is the B→A profile while
	// Profile shapes A→B — an asymmetric WAN link. Nil keeps the link
	// symmetric (Profile both ways), the pre-WAN behaviour.
	Reverse *LinkProfile
}

// Schedule places one fault on the harness clock: At is the offset from
// the start of the run (Advance) or from Start's call time (real time).
type Schedule struct {
	At    time.Duration
	Fault Fault
}

// Script is a fault timeline. Order within equal offsets is preserved.
type Script []Schedule

// ChaosEvent records one applied fault: when the clock said it fired,
// the resolved host names (wildcards pinned), and any hook error.
type ChaosEvent struct {
	At   time.Duration
	Kind FaultKind
	A, B string
	Err  error
}

func (e ChaosEvent) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=+%v %s %s", e.At, e.Kind, e.A)
	if e.B != "" {
		fmt.Fprintf(&b, "--%s", e.B)
	}
	if e.Err != nil {
		fmt.Fprintf(&b, " err=%v", e.Err)
	}
	return b.String()
}

// ChaosConfig parameterises a harness.
type ChaosConfig struct {
	// Hosts are the candidates a wildcard ("*") fault picks from.
	Hosts []string
	// Seed drives all harness randomness; equal seeds and scripts give
	// byte-identical event logs.
	Seed int64
	// Domains names federated host sets: a fault addressed to
	// "dom:<name>" applies to every member (crashes/restarts) or to
	// every cross pair (partitions, heals, link faults). Unknown domain
	// names fall back to the literal host string.
	Domains map[string][]string
	// Crash, when set, runs after the transport-level CrashHost — the
	// place to stop the served objects of the host (close their server).
	Crash func(host string) error
	// Restart, when set, runs on FaultRestart — the place to re-listen
	// and recover state. The harness itself does nothing at the network
	// level: a restarted process simply calls Listen again.
	Restart func(host string) error
}

// Chaos plays a Script against a Network. Drive it either in step mode
// (Advance, a sim clock the caller owns) or in real time (Start/Stop).
type Chaos struct {
	net *Network
	cfg ChaosConfig

	mu          sync.Mutex
	script      Script // sorted stably by At
	rng         *rand.Rand
	next        int
	now         time.Duration
	events      []ChaosEvent
	lastCrashed string // target of the most recent crash, for "*" restarts

	stopCh  chan struct{}
	doneCh  chan struct{}
	started bool
}

// NewChaos builds a harness for the network. The script is copied and
// stably sorted by offset, so equal-time faults apply in listed order.
func NewChaos(n *Network, cfg ChaosConfig, script Script) *Chaos {
	s := make(Script, len(script))
	copy(s, script)
	sort.SliceStable(s, func(i, j int) bool { return s[i].At < s[j].At })
	return &Chaos{
		net:    n,
		cfg:    cfg,
		script: s,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Advance moves the harness clock to offset `to`, applying every fault
// scheduled at or before it (in order), and returns how many fired. The
// clock never moves backwards; a smaller `to` is a no-op.
func (c *Chaos) Advance(to time.Duration) int {
	c.mu.Lock()
	if to > c.now {
		c.now = to
	}
	var due []Schedule
	for c.next < len(c.script) && c.script[c.next].At <= c.now {
		due = append(due, c.script[c.next])
		c.next++
	}
	c.mu.Unlock()
	for _, s := range due {
		c.apply(s)
	}
	return len(due)
}

// Done reports whether every scheduled fault has been applied.
func (c *Chaos) Done() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.next >= len(c.script)
}

// Events returns the applied-fault log in application order.
func (c *Chaos) Events() []ChaosEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ChaosEvent, len(c.events))
	copy(out, c.events)
	return out
}

// Timeline renders the event log one line per fault — the byte-identical
// artifact the determinism property checks.
func (c *Chaos) Timeline() string {
	var b strings.Builder
	for _, e := range c.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Start plays the script in real time, measuring offsets from the call.
// It returns immediately; Stop (or script exhaustion) ends the run.
func (c *Chaos) Start() {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.stopCh = make(chan struct{})
	c.doneCh = make(chan struct{})
	stop, done := c.stopCh, c.doneCh
	c.mu.Unlock()
	go c.run(stop, done)
}

// Stop halts a real-time run and waits for its goroutine to exit.
// Pending faults stay pending; Advance can still flush them.
func (c *Chaos) Stop() {
	c.mu.Lock()
	if !c.started {
		c.mu.Unlock()
		return
	}
	c.started = false
	stop, done := c.stopCh, c.doneCh
	c.mu.Unlock()
	close(stop)
	<-done
}

func (c *Chaos) run(stop, done chan struct{}) {
	defer close(done)
	start := time.Now()
	for {
		c.mu.Lock()
		if c.next >= len(c.script) {
			c.mu.Unlock()
			return
		}
		at := c.script[c.next].At
		c.mu.Unlock()
		if wait := at - time.Since(start); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-stop:
				t.Stop()
				return
			}
		}
		c.Advance(at)
	}
}

// apply resolves wildcards and domains, injects the fault, and logs the
// event.
func (c *Chaos) apply(s Schedule) {
	f := s.Fault
	a := c.resolveHost(f.Kind, f.A)
	ev := ChaosEvent{At: s.At, Kind: f.Kind, A: a, B: f.B}
	as := c.expandDomain(a)
	bs := c.expandDomain(f.B)
	firstErr := func(err error) {
		if err != nil && ev.Err == nil {
			ev.Err = err
		}
	}
	switch f.Kind {
	case FaultCrash:
		c.mu.Lock()
		c.lastCrashed = as[len(as)-1]
		c.mu.Unlock()
		for _, h := range as {
			c.net.CrashHost(h)
			if c.cfg.Crash != nil {
				firstErr(c.cfg.Crash(h))
			}
		}
	case FaultRestart:
		if c.cfg.Restart != nil {
			for _, h := range as {
				firstErr(c.cfg.Restart(h))
			}
		}
	case FaultPartition:
		c.net.PartitionHosts(as, bs)
	case FaultHeal:
		c.net.HealHosts(as, bs)
	case FaultLink:
		rev := f.Profile
		if f.Reverse != nil {
			rev = *f.Reverse
		}
		c.net.SetLinkHosts(as, bs, f.Profile, rev)
	case FaultLinkClear:
		c.net.ClearLinkHosts(as, bs)
	}
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// domainPrefix marks a fault host as a federated-domain reference.
const domainPrefix = "dom:"

// expandDomain resolves "dom:<name>" to the domain's member hosts; any
// other string (including an unknown domain) is itself the single host.
func (c *Chaos) expandDomain(h string) []string {
	if strings.HasPrefix(h, domainPrefix) {
		if hosts := c.cfg.Domains[h[len(domainPrefix):]]; len(hosts) > 0 {
			return hosts
		}
	}
	return []string{h}
}

// resolveHost pins a wildcard to a concrete host with the seeded RNG.
// A "*" restart revives the most recently crashed host rather than a
// random one, so crash/restart pairs in a script stay matched.
func (c *Chaos) resolveHost(kind FaultKind, h string) string {
	if h != "*" {
		return h
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if kind == FaultRestart && c.lastCrashed != "" {
		return c.lastCrashed
	}
	if len(c.cfg.Hosts) == 0 {
		return h
	}
	return c.cfg.Hosts[c.rng.Intn(len(c.cfg.Hosts))]
}
