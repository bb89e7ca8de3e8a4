package health

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/policy"
)

// Plan is what recovery does for one endpoint. All hooks are optional;
// each receives the endpoint so one plan value can serve many
// endpoints. Hooks run on the controller's single worker goroutine —
// recovery actions (ring changes, group membership edits) are
// serialised by construction, never concurrent with each other.
type Plan struct {
	// OnSuspect runs when the endpoint turns Suspect: a proactive
	// action while the endpoint may still answer (e.g. draining a shard
	// off the ring through the live migration path).
	OnSuspect func(ctx context.Context, endpoint string) error
	// OnDead runs when the endpoint turns Dead: the failover itself
	// (drop the dead group member, promote a standby, re-replicate).
	OnDead func(ctx context.Context, endpoint string) error
	// OnAlive runs when a previously suspect/dead endpoint heals: the
	// re-admission (catch the member up, rejoin the ring). When the
	// controller has Breakers, OnAlive is gated by the endpoint's
	// breaker: a half-open probe is claimed for the attempt, Record
	// reports its outcome, and ReturnProbe hands an unused probe back.
	OnAlive func(ctx context.Context, endpoint string) error
}

// ControllerConfig parameterises a Controller.
type ControllerConfig struct {
	// RetryDelay separates attempts (default 5ms).
	RetryDelay time.Duration
	// Breakers, when set, gates OnAlive re-admission per endpoint: heal
	// actions claim the breaker's half-open probe so a flapping endpoint
	// is re-admitted at most once per breaker open interval.
	Breakers *policy.BreakerSet
}

// ControllerStats counts recovery activity.
type ControllerStats struct {
	Handled      uint64 // transitions accepted onto the queue
	Actions      uint64 // plan hooks that ran and succeeded
	Failures     uint64 // plan hooks that exhausted their retries
	Dropped      uint64 // transitions dropped at a full queue or with no plan
	Readmissions uint64 // successful breaker-gated OnAlive actions
}

// Controller is the self-healing layer's acting half: it consumes
// liveness transitions (wired to the detector directly or via the event
// bus) and executes per-endpoint recovery plans on one serial worker.
type Controller struct {
	cfg ControllerConfig

	mu       sync.Mutex
	plans    map[string]Plan
	fallback *Plan

	q      chan Transition
	done   chan struct{}
	cancel context.CancelFunc
	closed atomic.Bool

	handled      atomic.Uint64
	actions      atomic.Uint64
	failures     atomic.Uint64
	dropped      atomic.Uint64
	readmissions atomic.Uint64
}

// NewController creates a controller and starts its worker.
func NewController(cfg ControllerConfig) *Controller {
	ctx, cancel := context.WithCancel(context.Background())
	if cfg.RetryDelay <= 0 {
		cfg.RetryDelay = 5 * time.Millisecond
	}
	c := &Controller{
		cfg:    cfg,
		plans:  make(map[string]Plan),
		q:      make(chan Transition, transitionQueue),
		done:   make(chan struct{}),
		cancel: cancel,
	}
	go c.run(ctx)
	return c
}

// SetPlan installs endpoint's recovery plan, replacing any previous one.
func (c *Controller) SetPlan(endpoint string, p Plan) {
	c.mu.Lock()
	c.plans[endpoint] = p
	c.mu.Unlock()
}

// SetFallbackPlan installs the plan used by endpoints without their own.
func (c *Controller) SetFallbackPlan(p Plan) {
	c.mu.Lock()
	c.fallback = &p
	c.mu.Unlock()
}

// Handle enqueues one transition; it never blocks. Full queue or a
// closed controller drops the transition (counted): the detector keeps
// probing and will report the condition again.
func (c *Controller) Handle(t Transition) {
	if c.closed.Load() {
		c.dropped.Add(1)
		return
	}
	select {
	case c.q <- t:
		c.handled.Add(1)
	default:
		c.dropped.Add(1)
	}
}

// Stats returns the controller's activity counters.
func (c *Controller) Stats() ControllerStats {
	return ControllerStats{
		Handled:      c.handled.Load(),
		Actions:      c.actions.Load(),
		Failures:     c.failures.Load(),
		Dropped:      c.dropped.Load(),
		Readmissions: c.readmissions.Load(),
	}
}

// Close stops the worker; queued transitions are abandoned.
func (c *Controller) Close() {
	if c.closed.Swap(true) {
		return
	}
	c.cancel()
	<-c.done
}

func (c *Controller) run(ctx context.Context) {
	defer close(c.done)
	for {
		select {
		case <-ctx.Done():
			return
		case t := <-c.q:
			c.act(ctx, t)
		}
	}
}

func (c *Controller) plan(endpoint string) (Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.plans[endpoint]; ok {
		return p, true
	}
	if c.fallback != nil {
		return *c.fallback, true
	}
	return Plan{}, false
}

func (c *Controller) act(ctx context.Context, t Transition) {
	p, ok := c.plan(t.Endpoint)
	if !ok {
		c.dropped.Add(1)
		return
	}
	var hook func(context.Context, string) error
	switch t.To {
	case Suspect:
		hook = p.OnSuspect
	case Dead:
		hook = p.OnDead
	case Alive:
		hook = p.OnAlive
	}
	if hook == nil {
		return
	}

	// Heal actions are breaker-gated: claim the half-open probe for the
	// attempt; hand it back untouched if the breaker refuses (still
	// open), so re-admission of a flapping endpoint is paced by the
	// breaker, not by the detector's transition rate.
	var br *policy.Breaker
	if t.To == Alive && c.cfg.Breakers != nil {
		br = c.cfg.Breakers.For(t.Endpoint)
		allowed, probe := br.Allow()
		if !allowed {
			c.failures.Add(1)
			return
		}
		if !probe {
			br = nil // breaker closed: nothing to report back
		} else if ctx.Err() != nil {
			br.ReturnProbe() // shutting down: hand the unused probe back
			return
		}
	}

	err := c.attempt(ctx, hook, t.Endpoint)
	if br != nil {
		br.Record(err == nil)
	}
	switch {
	case err == nil:
		c.actions.Add(1)
		if t.To == Alive && br != nil {
			c.readmissions.Add(1)
		}
	case ctx.Err() == nil: // an action cut short by shutdown is not a failure
		c.failures.Add(1)
	}
}

func (c *Controller) attempt(ctx context.Context, hook func(context.Context, string) error, ep string) error {
	var err error
	for i := 0; i < actionAttempts; i++ {
		if i > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(c.cfg.RetryDelay):
			}
		}
		actx, cancel := context.WithTimeout(ctx, actionTimeout)
		err = hook(actx, ep)
		cancel()
		if err == nil {
			return nil
		}
	}
	return fmt.Errorf("health: %d attempts: %w", actionAttempts, err)
}
