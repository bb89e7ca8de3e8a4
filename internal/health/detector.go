// Package health is the self-healing layer's sensing half: a
// heartbeat/lease failure detector that probes endpoints, maintains a
// per-endpoint suspicion level driven by a window of observed probe
// round trips, and reports liveness transitions (alive, suspect, dead)
// to whoever acts on them — typically the recovery Controller in this
// package, subscribed through the system event bus.
//
// The tutorial's §9 failure transparency is a *prescribed* property:
// somebody has to do the detecting and the repairing that the
// transparency hides. The detector is deliberately probe-agnostic — a
// ProbeFunc can dial a transport, invoke a ping interface through the
// full channel stack, or be fed passively from application traffic via
// Observe — so the machinery that restores service is reached through
// the same channels it restores.
package health

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/mgmt"
)

// State is an endpoint's liveness as judged by the detector.
type State int32

const (
	// Alive: recent probes succeed within the adaptive timeout.
	Alive State = iota
	// Suspect: SuspectAfter consecutive probes missed — degraded or
	// partitioned, but not yet written off.
	Suspect
	// Dead: DeadAfter consecutive probes missed — the lease is gone and
	// recovery may act.
	Dead
)

func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// ProbeFunc checks one endpoint once and reports the observed round
// trip. The context carries the adaptive timeout; a probe that cannot
// complete within it should return the context's error. A zero rtt on
// success is filled in by the detector from wall-clock time.
type ProbeFunc func(ctx context.Context) (time.Duration, error)

// Transition is one liveness change, published on the event bus as
// EventTopic records and handed to OnTransition.
type Transition struct {
	Endpoint  string
	From, To  State
	Suspicion float64       // suspicion level (0..1) when the transition fired
	RTT       time.Duration // smoothed round trip over the window (0 if none yet)
	At        time.Time
}

// Config parameterises a Detector. The zero value gets workable
// defaults for simulated-network tests; real deployments scale Interval
// and MinTimeout up.
type Config struct {
	// Interval is the probe period per endpoint (default 20ms).
	Interval time.Duration
	// MinTimeout floors the per-probe timeout (default 4×Interval).
	MinTimeout time.Duration
	// SuspectAfter is the consecutive misses before Suspect (default 2).
	SuspectAfter int
	// DeadAfter is the consecutive misses before Dead (default 4; must
	// be >= SuspectAfter).
	DeadAfter int
	// OnTransition, when set, is called after every liveness change,
	// outside detector locks (the odp facade uses it to publish
	// EventTopic records on the system bus).
	OnTransition func(Transition)
}

// The package's bounds, at the values every deployment runs with.
const (
	// rttFactor scales the windowed round trip into the adaptive probe
	// timeout, max(MinTimeout, rttFactor × mean window RTT): a WAN latency
	// regime shift first shows up as misses — suspicion — and then, once
	// probes succeed again, the window and the timeout follow the new
	// regime. 4× is the margin MinTimeout's default keeps over Interval.
	rttFactor = 4
	// rttWindow is how many successful round trips an endpoint's smoothing
	// window holds: 32 probes forget a past regime in under a second at
	// the default Interval.
	rttWindow = 32
	// actionAttempts is how often the controller tries a failing action
	// before counting a failure: two retries ride out a ring change or a
	// promotion racing the action.
	actionAttempts = 3
	// actionTimeout bounds one attempt: a plan hook is a handful of
	// control-plane calls, so one still running after 5s is stuck.
	actionTimeout = 5 * time.Second
	// retryDelay separates a plan's attempts and starts the backoff of a
	// verdict put off, which doubles up to maxBackoff.
	retryDelay = time.Millisecond
	maxBackoff = 100 * time.Millisecond
)

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 20 * time.Millisecond
	}
	if c.MinTimeout <= 0 {
		c.MinTimeout = 4 * c.Interval
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 2
	}
	if c.DeadAfter < c.SuspectAfter {
		c.DeadAfter = 2 * c.SuspectAfter
	}
	return c
}

// EndpointStatus is one row of a detector snapshot.
type EndpointStatus struct {
	Endpoint  string
	State     State
	Suspicion float64
	RTT       time.Duration // smoothed window round trip
	Misses    int           // consecutive misses right now
}

// EndpointStats is one watched endpoint's counters, as Stats reports them.
type EndpointStats struct {
	State       State
	Suspicion   int64  // suspicion level, per-mille (0..1000)
	Probes      uint64 // probes completed (active and passive samples)
	Misses      uint64 // probes that failed or exceeded the adaptive timeout
	Transitions uint64 // liveness transitions
	RTTNs       mgmt.HistogramSnapshot
}

// Detector runs one probe loop per watched endpoint and keeps the
// per-endpoint suspicion state machine.
type Detector struct {
	cfg Config

	mu     sync.Mutex
	eps    map[string]*endpointState
	closed bool
}

type endpointState struct {
	name   string
	probe  ProbeFunc
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	state  State
	misses int
	window [rttWindow]time.Duration // ring of successful round trips
	wi, wn int
	rttSum time.Duration

	probes, missed, transitions uint64
	rtt                         mgmt.Histogram // successful probe round trips, ns
}

// New creates a detector. Endpoints are added with Watch; Close stops
// every probe loop.
func New(cfg Config) *Detector {
	return &Detector{
		cfg: cfg.withDefaults(),
		eps: make(map[string]*endpointState),
	}
}

// Watch starts probing endpoint with probe. The first probe fires
// immediately. Watching an endpoint twice is an error.
func (d *Detector) Watch(endpoint string, probe ProbeFunc) error {
	if probe == nil {
		return fmt.Errorf("health: nil probe for %q", endpoint)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("health: detector closed")
	}
	if _, dup := d.eps[endpoint]; dup {
		return fmt.Errorf("health: already watching %q", endpoint)
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &endpointState{
		name:   endpoint,
		probe:  probe,
		cancel: cancel,
		done:   make(chan struct{}),
	}
	d.eps[endpoint] = e
	go d.loop(ctx, e)
	return nil
}

// Unwatch stops probing endpoint and forgets its state.
func (d *Detector) Unwatch(endpoint string) {
	d.mu.Lock()
	e := d.eps[endpoint]
	delete(d.eps, endpoint)
	d.mu.Unlock()
	if e != nil {
		e.cancel()
		<-e.done
	}
}

// Close stops every probe loop and waits for them to exit.
func (d *Detector) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	eps := make([]*endpointState, 0, len(d.eps))
	for _, e := range d.eps {
		eps = append(eps, e)
	}
	d.eps = map[string]*endpointState{}
	d.mu.Unlock()
	for _, e := range eps {
		e.cancel()
	}
	for _, e := range eps {
		<-e.done
	}
}

// State reports an endpoint's current liveness and suspicion; ok is
// false when the endpoint is not watched.
func (d *Detector) State(endpoint string) (st State, suspicion float64, ok bool) {
	d.mu.Lock()
	e := d.eps[endpoint]
	d.mu.Unlock()
	if e == nil {
		return Alive, 0, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state, e.suspicionLocked(d.cfg), true
}

// Snapshot lists every watched endpoint's status, sorted by name.
func (d *Detector) Snapshot() []EndpointStatus {
	eps := d.watched()
	out := make([]EndpointStatus, 0, len(eps))
	for _, e := range eps {
		e.mu.Lock()
		out = append(out, EndpointStatus{
			Endpoint:  e.name,
			State:     e.state,
			Suspicion: e.suspicionLocked(d.cfg),
			RTT:       e.meanLocked(),
			Misses:    e.misses,
		})
		e.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out
}

// Stats returns every watched endpoint's counters, keyed by endpoint; an
// endpoint leaves it at Unwatch.
func (d *Detector) Stats() map[string]EndpointStats {
	eps := d.watched()
	out := make(map[string]EndpointStats, len(eps))
	for _, e := range eps {
		e.mu.Lock()
		out[e.name] = EndpointStats{
			State:       e.state,
			Suspicion:   int64(e.suspicionLocked(d.cfg) * 1000),
			Probes:      e.probes,
			Misses:      e.missed,
			Transitions: e.transitions,
			RTTNs:       e.rtt.Snapshot(),
		}
		e.mu.Unlock()
	}
	return out
}

// watched returns the endpoints being probed.
func (d *Detector) watched() []*endpointState {
	d.mu.Lock()
	defer d.mu.Unlock()
	eps := make([]*endpointState, 0, len(d.eps))
	for _, e := range d.eps {
		eps = append(eps, e)
	}
	return eps
}

// Observe feeds one passive sample — a round trip (or failure) seen by
// ordinary application traffic to endpoint — into the same state
// machine the active probes drive, so a chatty endpoint needs no probe
// traffic to stay fresh. Unwatched endpoints are ignored.
func (d *Detector) Observe(endpoint string, rtt time.Duration, err error) {
	d.mu.Lock()
	e := d.eps[endpoint]
	d.mu.Unlock()
	if e == nil {
		return
	}
	d.observe(e, err == nil, rtt)
}

// loop is one endpoint's probe goroutine: probe, judge against the
// adaptive timeout, sleep the interval, repeat.
func (d *Detector) loop(ctx context.Context, e *endpointState) {
	defer close(e.done)
	t := time.NewTimer(0)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		timeout := d.timeout(e)
		pctx, cancel := context.WithTimeout(ctx, timeout)
		start := time.Now()
		rtt, err := e.probe(pctx)
		cancel()
		if err == nil && rtt <= 0 {
			rtt = time.Since(start)
		}
		if ctx.Err() != nil {
			return // shutting down: the aborted probe is not a miss
		}
		d.observe(e, err == nil && rtt <= timeout, rtt)
		t.Reset(d.cfg.Interval)
	}
}

// timeout computes the endpoint's adaptive probe timeout from its RTT
// window.
func (d *Detector) timeout(e *endpointState) time.Duration {
	e.mu.Lock()
	mean := e.meanLocked()
	e.mu.Unlock()
	return max(rttFactor*mean, d.cfg.MinTimeout)
}

func (e *endpointState) meanLocked() time.Duration {
	if e.wn == 0 {
		return 0
	}
	return e.rttSum / time.Duration(e.wn)
}

func (e *endpointState) suspicionLocked(cfg Config) float64 {
	s := float64(e.misses) / float64(cfg.DeadAfter)
	if s > 1 {
		s = 1
	}
	return s
}

// observe runs the suspicion state machine for one sample and fires the
// transition callback (outside all locks) when the state changed.
func (d *Detector) observe(e *endpointState, ok bool, rtt time.Duration) {
	cfg := d.cfg
	e.mu.Lock()
	from := e.state
	e.probes++
	if ok {
		old := e.window[e.wi]
		e.window[e.wi] = rtt
		e.wi = (e.wi + 1) % len(e.window)
		if e.wn < len(e.window) {
			e.wn++
		} else {
			e.rttSum -= old
		}
		e.rttSum += rtt
		e.rtt.Observe(uint64(rtt))
		e.misses = 0
		e.state = Alive
	} else {
		e.missed++
		e.misses++
		if e.misses >= cfg.DeadAfter {
			e.state = Dead
		} else if e.misses >= cfg.SuspectAfter {
			e.state = Suspect
		}
	}
	to := e.state
	if to != from {
		e.transitions++
	}
	suspicion := e.suspicionLocked(cfg)
	smoothed := e.meanLocked()
	e.mu.Unlock()

	if to == from {
		return
	}
	if cb := cfg.OnTransition; cb != nil {
		cb(Transition{
			Endpoint:  e.name,
			From:      from,
			To:        to,
			Suspicion: suspicion,
			RTT:       smoothed,
			At:        time.Now(),
		})
	}
}
