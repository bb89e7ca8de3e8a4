package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// TestE11ChaosSmoke is the CI gate on the chaos experiment: a short run
// in policy-on mode must keep the bank available after the faults heal,
// must show the failure-policy machinery actually engaging (breakers
// opened, a degraded read was flagged and traced), and must not leak
// goroutines — every delivery loop, server and session the fault script
// churned through has to wind down.
func TestE11ChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run takes ~3s of wall clock")
	}
	// Everything the run spins up — servers, sessions, chaos driver,
	// delayed-delivery loops — must be gone by the end.
	defer leakcheck.Guard(t, 2, 5*time.Second)()

	rep, err := E11Chaos(3*time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops < 100 {
		t.Fatalf("only %d ops in %v; workload stalled", rep.Ops, rep.Duration)
	}
	if rep.AvailabilityHealed < 0.99 {
		t.Fatalf("availability after heal = %.4f, want ≥0.99\nerrors: %v\ntimeline:\n%s",
			rep.AvailabilityHealed, rep.Errors, rep.Timeline)
	}
	if rep.TimeToRecover < 0 {
		t.Fatalf("system never recovered after the heal\nerrors: %v", rep.Errors)
	}
	if rep.BreakerOpens == 0 {
		t.Fatal("no breaker ever opened under a two-node crash script")
	}
	if rep.MembersEnd != len(e11Hosts) {
		t.Fatalf("members at end = %d, want %d (Retain+rejoin must restore the full group)",
			rep.MembersEnd, len(e11Hosts))
	}
	if rep.DegradedReads == 0 {
		t.Fatal("no read was ever flagged stale during the outage")
	}
	if !strings.Contains(rep.StaleTrace, "replica.read.stale:") {
		t.Fatalf("stale-read trace missing its marker span:\n%s", rep.StaleTrace)
	}
	if !strings.Contains(rep.Timeline, "crash n1") || !strings.Contains(rep.Timeline, "restart n3") {
		t.Fatalf("timeline missing scripted faults:\n%s", rep.Timeline)
	}
}

// TestE11PolicyOffRuns checks the baseline mode stays runnable (its
// numbers are allowed to be bad — that contrast is the experiment).
func TestE11PolicyOffRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run takes ~2s of wall clock")
	}
	rep, err := E11Chaos(2*time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops == 0 {
		t.Fatal("no operations attempted")
	}
	if rep.Mode != "policy-off" {
		t.Fatalf("mode = %q", rep.Mode)
	}
	// The legacy configuration retries, but immediately: no backoff.
	if rep.BreakerOpens != 0 || rep.BackoffNs != 0 {
		t.Fatalf("legacy mode used policy machinery: opens=%d backoff=%dns",
			rep.BreakerOpens, rep.BackoffNs)
	}
}
