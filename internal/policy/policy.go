// Package policy is the recovery-policy layer of failure transparency
// (Section 9 of the tutorial): the rules that decide *when* the channel
// retries, how long a whole interaction may take, and when an endpoint is
// declared dead and calls to it fail fast. The tutorial's channel objects
// "provide services transparently" — the mechanisms live in package
// channel (replay), coordination (failover) and engineering (recovery);
// this package holds only the policy those mechanisms consult, so one
// composable value can be shared by a binding, a replica group and a
// trader federation link.
//
// Two policies are provided. RetryPolicy bounds one interaction: a total
// attempt count, a per-attempt timeout, a single deadline *budget* shared
// by every attempt and relocation (instead of N independent call
// timeouts), and exponential backoff with deterministic seeded jitter
// between attempts. CircuitBreaker bounds an endpoint: a windowed failure
// rate trips it open, calls then fail fast without touching the wire, and
// after a cooling-off period a single half-open probe decides whether to
// close it again. Breakers are shared per endpoint (see BreakerSet) so
// every binding to a dead node learns of the death at the price of one
// timeout, not one each.
package policy

import (
	"context"
	"errors"
	"time"
)

// Policy error sentinels, designed for errors.Is across the stack.
var (
	// ErrCircuitOpen rejects a call because the endpoint's circuit breaker
	// is open: the endpoint failed recently and is presumed still dead.
	ErrCircuitOpen = errors.New("policy: circuit open")
)

// The package's bounds, at the values every deployment runs with.
const (
	// backoffDoublings is how often Backoff doubles the delay before it
	// stops growing: four, so the cap is 16×BaseBackoff. Doubling thins a
	// retry storm out; a cap that close to the base keeps an interaction's
	// last retries inside its Budget instead of sleeping through it.
	backoffDoublings = 4
	// rateWindow is the sliding window (two half-window buckets) over
	// which a closed Breaker computes its failure rate: long against any
	// AttemptTimeout in use, so one slow call is never the whole sample.
	rateWindow = 10 * time.Second
	// rateMinSamples is the window population below which the rate cannot
	// trip — the five outcomes ConsecutiveFailures defaults to, so a quiet
	// endpoint is not opened on less evidence than a busy one.
	rateMinSamples = 5
	// rateThreshold is the windowed failure rate at or above which the
	// breaker opens: an endpoint failing every other call is not serving.
	rateThreshold = 0.5
)

// RetryPolicy bounds the attempts of one interaction. The zero value
// means "one attempt, no timeout, no backoff" — the degenerate policy.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (first try + retries).
	// Values below 1 mean 1.
	MaxAttempts int
	// AttemptTimeout bounds each individual attempt. Zero leaves attempts
	// bounded only by the budget and the caller's context.
	AttemptTimeout time.Duration
	// Budget bounds the whole interaction — every attempt, every backoff
	// sleep and every relocation refresh shares this one deadline. Zero
	// means the interaction is bounded only by the caller's context.
	Budget time.Duration
	// BaseBackoff is the delay before the first retry; each further retry
	// doubles it, up to 16×BaseBackoff. Zero disables backoff (retries are
	// immediate, the pre-policy behaviour).
	BaseBackoff time.Duration
	// Jitter in [0, 1] subtracts up to that fraction of the delay,
	// deterministically from Seed and the retry index, so co-ordinated
	// retry storms decorrelate yet every run with the same seed sleeps
	// identically (the chaos experiments depend on this).
	Jitter float64
	// Seed feeds the deterministic jitter.
	Seed uint64
}

// Attempts returns the effective total attempt count (≥ 1).
func (p RetryPolicy) Attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Backoff returns the delay to sleep before retry number retry (1-based:
// Backoff(1) precedes the first retry). Deterministic in (policy, retry).
func (p RetryPolicy) Backoff(retry int) time.Duration {
	if p.BaseBackoff <= 0 || retry < 1 {
		return 0
	}
	d := float64(p.BaseBackoff << min(retry-1, backoffDoublings))
	if j := p.Jitter; j > 0 {
		if j > 1 {
			j = 1
		}
		d *= 1 - j*seededFrac(p.Seed, uint64(retry))
	}
	return time.Duration(d)
}

// WithBudget derives the interaction's budget context: the deadline every
// attempt and backoff of one call shares. With a zero budget it returns
// ctx unchanged and a no-op cancel.
func (p RetryPolicy) WithBudget(ctx context.Context) (context.Context, context.CancelFunc) {
	if p.Budget <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, p.Budget)
}

// Wait sleeps for d or until ctx is done, whichever is first, returning
// ctx's error in the latter case. A non-positive d only checks ctx.
func Wait(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// seededFrac maps (seed, k) to a uniform fraction in [0, 1) with a
// splitmix64 finaliser — deterministic, allocation-free, and independent
// across retry indices.
func seededFrac(seed, k uint64) float64 {
	z := seed + k*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}
