package health

import (
	"context"
	"sync"
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
	// re-admission (catch the member up, rejoin the ring). With Breakers,
	// the heal waits while the endpoint's breaker is open, then claims its
	// half-open probe, Record reports the outcome, and ReturnProbe hands
	// an unused probe back.
	OnAlive func(ctx context.Context, endpoint string) error
}

// ControllerConfig parameterises a Controller.
type ControllerConfig struct {
	// Breakers, when set, gates OnAlive re-admission per endpoint: heal
	// actions claim the breaker's half-open probe so a flapping endpoint
	// is re-admitted at most once per breaker open interval.
	Breakers *policy.BreakerSet
}

// ControllerStats counts recovery activity.
type ControllerStats struct {
	Actions      uint64 // plan hooks that ran and succeeded
	Failures     uint64 // verdicts whose plan failed its attempts, once each
	Readmissions uint64 // successful breaker-gated OnAlive actions
	Pending      int    // endpoints whose latest verdict's plan has not succeeded
}

// Controller is the self-healing layer's acting half: it consumes
// liveness transitions (from the detector or the event bus) and, on one
// worker, retries the plan of each endpoint's latest verdict (wanted)
// until it succeeds (done). A newer verdict overwrites an older one.
type Controller struct {
	cfg ControllerConfig

	mu    sync.Mutex
	plans map[string]Plan
	eps   map[string]*level // the endpoints not known to be reconciled
	stats ControllerStats   // but Pending, which is counted from eps

	wake   chan struct{} // one slot: Handle pokes the worker
	done   chan struct{}
	cancel context.CancelFunc
}

// level is an endpoint's latest verdict; Handle never changes one in place.
type level struct {
	wanted, done State
	next         time.Time     // not tried before: a backoff or a breaker wait
	backoff      time.Duration // doubles from retryDelay up to maxBackoff
	failed       bool          // this verdict's failure has been counted
}

// NewController creates a controller and starts its worker.
func NewController(cfg ControllerConfig) *Controller {
	ctx, cancel := context.WithCancel(context.Background())
	c := &Controller{
		cfg:    cfg,
		plans:  make(map[string]Plan),
		eps:    make(map[string]*level),
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
		cancel: cancel,
	}
	go c.run(ctx)
	return c
}

// SetPlan installs endpoint's recovery plan, replacing any previous one.
// A verdict whose hook is missing is done as soon as the worker sees it.
func (c *Controller) SetPlan(endpoint string, p Plan) {
	c.mu.Lock()
	c.plans[endpoint] = p
	c.mu.Unlock()
}

// Handle makes t.To the endpoint's wanted state, due at once, and wakes
// the worker; it never blocks. An endpoint without an entry is done where
// t.From says.
func (c *Controller) Handle(t Transition) {
	c.mu.Lock()
	if l := c.eps[t.Endpoint]; l != nil {
		t.From = l.done
	}
	c.eps[t.Endpoint] = &level{wanted: t.To, done: t.From}
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// Stats returns the controller's activity counters.
func (c *Controller) Stats() ControllerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	for _, l := range c.eps {
		if l.wanted != l.done {
			st.Pending++
		}
	}
	return st
}

// Close stops the worker; pending verdicts are abandoned.
func (c *Controller) Close() {
	c.cancel()
	<-c.done
}

func (c *Controller) run(ctx context.Context) {
	defer close(c.done)
	for ctx.Err() == nil {
		ep, l, p, timer := c.pick(time.Now())
		if l != nil {
			c.serve(ctx, ep, l, p)
			continue
		}
		select {
		case <-ctx.Done():
		case <-c.wake:
		case <-timer:
		}
	}
}

// pick forgets reconciled endpoints (only the worker removes entries) and
// returns a due one with its plan, or a timer for the first one waiting.
// A served endpoint settles or moves into the future, so each due one runs.
func (c *Controller) pick(now time.Time) (string, *level, Plan, <-chan time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var wait time.Duration
	for ep, l := range c.eps {
		d := l.next.Sub(now)
		switch {
		case l.wanted == l.done:
			delete(c.eps, ep)
		case d <= 0:
			return ep, l, c.plans[ep], nil
		case wait == 0 || d < wait:
			wait = d
		}
	}
	if wait == 0 {
		return "", nil, Plan{}, nil
	}
	return "", nil, Plan{}, time.After(wait)
}

// serve tries p's hook for ep's wanted state once and records the outcome.
func (c *Controller) serve(ctx context.Context, ep string, l *level, p Plan) {
	hook := [...]func(context.Context, string) error{Alive: p.OnAlive, Suspect: p.OnSuspect, Dead: p.OnDead}[l.wanted]

	// A heal waits while its breaker is open (State refuses nobody, so
	// waiting adds nothing to Rejected), then claims the half-open probe,
	// handing it back untouched at shutdown.
	var br *policy.Breaker
	ok, probe := true, false
	if hook != nil && l.wanted == Alive && c.cfg.Breakers != nil {
		br = c.cfg.Breakers.For(ep)
		if ok = br.State() != policy.Open; ok {
			ok, probe = br.Allow()
		}
		if probe && ctx.Err() != nil {
			br.ReturnProbe()
			return
		}
	}
	var err error
	if hook != nil && ok {
		if err = c.attempt(ctx, hook, ep); probe {
			br.Record(err == nil)
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case err == nil && ok: // done moves to l.wanted; a verdict that came meanwhile is due at once
		if hook != nil {
			c.stats.Actions++
		}
		if probe {
			c.stats.Readmissions++
		}
		c.eps[ep].done = l.wanted
	case err != nil && ctx.Err() != nil: // cut short by shutdown: not a failure
	default: // open breaker or failed plan: put off, a failure counted once per verdict
		if err != nil && !l.failed {
			l.failed = true
			c.stats.Failures++
		}
		l.backoff = min(max(2*l.backoff, retryDelay), maxBackoff)
		l.next = time.Now().Add(l.backoff)
	}
}

// attempt runs hook up to actionAttempts times, retryDelay apart, each
// attempt bounded by actionTimeout.
func (c *Controller) attempt(ctx context.Context, hook func(context.Context, string) error, ep string) (err error) {
	for i := 0; i < actionAttempts; i++ {
		if i > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(retryDelay):
			}
		}
		actx, cancel := context.WithTimeout(ctx, actionTimeout)
		err = hook(actx, ep)
		cancel()
		if err == nil {
			return nil
		}
	}
	return err
}
