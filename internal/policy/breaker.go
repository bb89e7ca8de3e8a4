package policy

import (
	"sync"
	"sync/atomic"
	"time"
)

// State is a circuit breaker's position.
type State int32

// The breaker states: Closed passes calls, Open rejects them, HalfOpen
// admits exactly one probe whose outcome decides the next state.
const (
	Closed State = iota
	Open
	HalfOpen
)

// String returns the state's name.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "state(?)"
}

// BreakerConfig tunes a circuit breaker. The zero value gets working
// defaults (see the field comments).
type BreakerConfig struct {
	// ConsecutiveFailures opens the breaker after this many back-to-back
	// failures, whatever the windowed failure rate (see rateThreshold).
	// Default 5; negative disables.
	ConsecutiveFailures int
	// OnTransition, when set, is called after a breaker trips Open or
	// re-closes (the implicit Open -> HalfOpen probe admission is not a
	// transition in this sense). key is the breaker's key within its set
	// ("" for a breaker minted directly). The hook runs outside the
	// breaker's lock, on the goroutine whose Record caused the
	// transition — odp uses it to publish breaker events on the system
	// event bus.
	OnTransition func(key string, to State)
	// OpenFor is the cooling-off period before an open breaker admits a
	// half-open probe. Default 1s.
	OpenFor time.Duration
	// Clock substitutes the time source (tests). Default time.Now.
	Clock func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.ConsecutiveFailures == 0 {
		c.ConsecutiveFailures = 5
	}
	if c.OpenFor <= 0 {
		c.OpenFor = time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// BreakerStats is a snapshot of one breaker's lifetime counters.
type BreakerStats struct {
	State     State
	Opens     uint64 // transitions into Open
	Closes    uint64 // half-open probes that re-closed the breaker
	Probes    uint64 // half-open probes admitted
	Rejected  uint64 // calls refused while Open/HalfOpen
	Successes uint64
	Failures  uint64
}

// Breaker is one endpoint's circuit breaker. Callers ask Allow before
// touching the endpoint and Record the outcome afterwards; a caller that
// was refused must not Record. Safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig
	key string // the breaker's key within its set; "" when standalone

	mu       sync.Mutex
	state    State
	openedAt time.Time
	probing  bool // a half-open probe is in flight
	consec   int  // consecutive failures while Closed

	// Two-bucket sliding window of outcomes.
	bucketAt time.Time
	curOK    int
	curFail  int
	prevOK   int
	prevFail int

	opens    atomic.Uint64
	closes   atomic.Uint64
	probes   atomic.Uint64
	rejected atomic.Uint64
	succ     atomic.Uint64
	fails    atomic.Uint64
}

// NewBreaker creates a breaker with the given (defaulted) configuration.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// State returns the breaker's current position, accounting for an
// elapsed cooling-off period (an Open breaker whose OpenFor has passed
// reports HalfOpen).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && b.cfg.Clock().Sub(b.openedAt) >= b.cfg.OpenFor {
		return HalfOpen
	}
	return b.state
}

// Stats returns a snapshot of the breaker's counters.
func (b *Breaker) Stats() BreakerStats {
	return BreakerStats{
		State:     b.State(),
		Opens:     b.opens.Load(),
		Closes:    b.closes.Load(),
		Probes:    b.probes.Load(),
		Rejected:  b.rejected.Load(),
		Successes: b.succ.Load(),
		Failures:  b.fails.Load(),
	}
}

// Allow reports whether a call may proceed. While Open it refuses until
// OpenFor has elapsed; then exactly one caller is admitted as the
// half-open probe (probe=true) and everyone else keeps getting refused
// until that probe's Record resolves the state. A refused caller must
// fail fast with ErrCircuitOpen and must not call Record.
func (b *Breaker) Allow() (ok, probe bool) {
	b.mu.Lock()
	switch b.state {
	case Closed:
		b.mu.Unlock()
		return true, false
	case Open:
		if b.cfg.Clock().Sub(b.openedAt) < b.cfg.OpenFor {
			b.mu.Unlock()
			b.rejected.Add(1)
			return false, false
		}
		b.state = HalfOpen
		fallthrough
	case HalfOpen:
		if b.probing {
			b.mu.Unlock()
			b.rejected.Add(1)
			return false, false
		}
		b.probing = true
		b.mu.Unlock()
		b.probes.Add(1)
		return true, true
	}
	b.mu.Unlock()
	return true, false
}

// ReturnProbe hands back an unused half-open probe token without
// recording an outcome: the breaker stays half-open and the next Allow
// may admit a different caller as the probe. For callers that obtained
// probe=true from Allow but must not be the one to re-admit the
// endpoint — a read path that cannot perform the rejoin work a probe's
// success implies — this is the alternative to Record.
func (b *Breaker) ReturnProbe() {
	b.mu.Lock()
	if b.state == HalfOpen && b.probing {
		b.probing = false
	}
	b.mu.Unlock()
}

// Record reports the outcome of an allowed call. In half-open state the
// probe's outcome closes (success) or re-opens (failure) the breaker; in
// closed state outcomes feed the failure window. A state transition
// fires cfg.OnTransition after the lock is released.
func (b *Breaker) Record(success bool) {
	if success {
		b.succ.Add(1)
	} else {
		b.fails.Add(1)
	}
	now := b.cfg.Clock()
	var fired State
	transitioned := false
	b.mu.Lock()
	switch b.state {
	case HalfOpen:
		b.probing = false
		if success {
			b.toClosedLocked()
			fired, transitioned = Closed, true
		} else {
			b.toOpenLocked(now)
			fired, transitioned = Open, true
		}
	case Open:
		// A straggler from before the trip; the window restarts on close.
	default: // Closed
		b.rollWindowLocked(now)
		if success {
			b.curOK++
			b.consec = 0
			break
		}
		b.curFail++
		b.consec++
		fails := b.curFail + b.prevFail
		total := fails + b.curOK + b.prevOK
		if (b.cfg.ConsecutiveFailures > 0 && b.consec >= b.cfg.ConsecutiveFailures) ||
			(total >= rateMinSamples && float64(fails)/float64(total) >= rateThreshold) {
			b.toOpenLocked(now)
			fired, transitioned = Open, true
		}
	}
	b.mu.Unlock()
	if transitioned && b.cfg.OnTransition != nil {
		b.cfg.OnTransition(b.key, fired)
	}
}

// toOpenLocked trips the breaker; callers hold b.mu.
func (b *Breaker) toOpenLocked(now time.Time) {
	b.state = Open
	b.openedAt = now
	b.consec = 0
	b.curOK, b.curFail, b.prevOK, b.prevFail = 0, 0, 0, 0
	b.opens.Add(1)
}

// toClosedLocked re-closes the breaker after a successful probe.
func (b *Breaker) toClosedLocked() {
	b.state = Closed
	b.consec = 0
	b.curOK, b.curFail, b.prevOK, b.prevFail = 0, 0, 0, 0
	b.bucketAt = time.Time{}
	b.closes.Add(1)
}

// rollWindowLocked shifts the two-bucket window forward when a
// half-window has elapsed.
func (b *Breaker) rollWindowLocked(now time.Time) {
	if b.bucketAt.IsZero() {
		b.bucketAt = now
		return
	}
	elapsed := now.Sub(b.bucketAt)
	if elapsed < rateWindow/2 {
		return
	}
	if elapsed < rateWindow {
		b.prevOK, b.prevFail = b.curOK, b.curFail
	} else {
		b.prevOK, b.prevFail = 0, 0
	}
	b.curOK, b.curFail = 0, 0
	b.bucketAt = now
}

// BreakerSet shares circuit breakers across callers, keyed by endpoint
// (or any identity string): every binding, replica proxy or federation
// link naming the same key consults the same breaker, so one endpoint
// death opens one breaker for everyone. Safe for concurrent use.
type BreakerSet struct {
	cfg BreakerConfig

	mu sync.Mutex
	m  map[string]*Breaker
}

// NewBreakerSet creates a set minting breakers with cfg.
func NewBreakerSet(cfg BreakerConfig) *BreakerSet {
	return &BreakerSet{cfg: cfg.withDefaults(), m: make(map[string]*Breaker)}
}

// For returns the breaker for key, minting a closed one on first use.
func (s *BreakerSet) For(key string) *Breaker {
	s.mu.Lock()
	b := s.m[key]
	if b == nil {
		b = NewBreaker(s.cfg)
		b.key = key
		s.m[key] = b
	}
	s.mu.Unlock()
	return b
}

// Peek returns the breaker for key without minting one, or nil.
func (s *BreakerSet) Peek(key string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[key]
}

// BreakerSetStats sums the counters of every breaker in a set.
type BreakerSetStats struct {
	Opens    uint64 // transitions into Open
	Closes   uint64 // half-open probes that re-closed a breaker
	Probes   uint64 // half-open probes admitted
	Rejected uint64 // calls refused while a breaker was Open/HalfOpen
	OpenNow  int    // breakers not Closed right now
}

// Snapshot returns per-key breaker statistics.
func (s *BreakerSet) Snapshot() map[string]BreakerStats {
	s.mu.Lock()
	keys := make([]string, 0, len(s.m))
	brs := make([]*Breaker, 0, len(s.m))
	for k, b := range s.m {
		keys = append(keys, k)
		brs = append(brs, b)
	}
	s.mu.Unlock()
	out := make(map[string]BreakerStats, len(keys))
	for i, k := range keys {
		out[k] = brs[i].Stats()
	}
	return out
}

// Stats sums the set's breakers. OpenNow is read from each breaker's
// State at the time of the call, so it cannot drift from the breakers.
func (s *BreakerSet) Stats() BreakerSetStats {
	var out BreakerSetStats
	for _, st := range s.Snapshot() {
		out.Opens += st.Opens
		out.Closes += st.Closes
		out.Probes += st.Probes
		out.Rejected += st.Rejected
		if st.State != Closed {
			out.OpenNow++
		}
	}
	return out
}
