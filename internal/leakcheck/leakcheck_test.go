package leakcheck

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// recorder is a testing.TB that keeps the failure instead of failing.
type recorder struct {
	testing.TB
	failure string
}

func (r *recorder) Helper() {}

func (r *recorder) Fatalf(format string, args ...any) { r.failure = fmt.Sprintf(format, args...) }

// parkedLeak blocks until release is closed: a goroutine the check must see.
func parkedLeak(release chan struct{}, started chan struct{}) {
	close(started)
	<-release
}

// TestGuardWaitsOutTeardown: a goroutine that is still unwinding when the
// guard runs is waited for within the grace period, not reported.
func TestGuardWaitsOutTeardown(t *testing.T) {
	r := &recorder{TB: t}
	check := Guard(r, 0, 5*time.Second)
	done := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(done)
	}()
	check()
	<-done
	if r.failure != "" {
		t.Fatalf("guard reported a goroutine that exited within its grace: %s", r.failure)
	}
}

// TestCheckReportsLeak: a goroutine still parked after the grace period
// fails the check with the counts and a stack dump naming the leaked loop.
func TestCheckReportsLeak(t *testing.T) {
	r := &recorder{TB: t}
	before := Now()
	release, started := make(chan struct{}), make(chan struct{})
	go parkedLeak(release, started)
	<-started
	defer close(release)
	Check(r, before, 0, 30*time.Millisecond)
	if !strings.Contains(r.failure, "goroutine leak") || !strings.Contains(r.failure, "parkedLeak") {
		t.Fatalf("failure = %.200q, want a leak report naming parkedLeak", r.failure)
	}
	r.failure = ""
	Check(r, before, 1, 30*time.Millisecond)
	if r.failure != "" {
		t.Fatalf("one goroutine over with slack 1 was reported: %.200q", r.failure)
	}
}
