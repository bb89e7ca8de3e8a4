package typerepo

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/values"
)

// deadlineCarrier records how far away each operation's context deadline
// was, then fails the call the way a partitioned host would: by waiting a
// deadline out — a millisecond child of the proxy's context, so the test
// does not sit through the proxy's own.
type deadlineCarrier struct {
	mu   sync.Mutex
	left map[string]time.Duration // op -> time left at the call; absent without a deadline
}

func (c *deadlineCarrier) Invoke(ctx context.Context, op string, _ []values.Value) (string, []values.Value, error) {
	if dl, ok := ctx.Deadline(); ok {
		c.mu.Lock()
		c.left[op] = time.Until(dl)
		c.mu.Unlock()
	}
	ctx, cancel := context.WithTimeout(ctx, time.Millisecond)
	defer cancel()
	<-ctx.Done()
	return "", nil, ctx.Err()
}

func (c *deadlineCarrier) Close() error { return nil }

// TestRemoteCallsCarryADeadline: every operation of the proxy's table
// reaches its carrier under the 30 s call deadline, and a call that waits
// its deadline out returns an error wrapping context.DeadlineExceeded.
func TestRemoteCallsCarryADeadline(t *testing.T) {
	c := &deadlineCarrier{left: map[string]time.Duration{}}
	r := NewRemote(c)
	// An operation whose signature has no error to return reports the
	// outcome it swallowed, so the table checks its deadline all the same.
	quiet := func(do func()) func() error {
		return func() error { do(); return context.DeadlineExceeded }
	}
	ops := map[string]func() error{
		"RegisterInterface":  func() error { return r.RegisterInterface(teller()) },
		"RegisterData":       func() error { return r.RegisterData("Money", values.TInt()) },
		"DeclareSubtype":     func() error { return r.DeclareSubtype("A", "B") },
		"Relate":             func() error { return r.Relate("uses", "A", "B") },
		"LookupInterface":    func() error { _, err := r.LookupInterface("A"); return err },
		"LookupData":         func() error { _, err := r.LookupData("Money"); return err },
		"IsSubtype":          func() error { _, err := r.IsSubtype("A", "B"); return err },
		"Supertypes":         func() error { _, err := r.Supertypes("A"); return err },
		"Subtypes":           func() error { _, err := r.Subtypes("A"); return err },
		"Interfaces":         quiet(func() { r.Interfaces() }),
		"DeclaredSupertypes": quiet(func() { r.DeclaredSupertypes("A") }),
		"Related":            quiet(func() { r.Related("uses", "A") }),
		"Gen":                quiet(func() { r.Gen() }),
	}
	for op, do := range ops {
		if err := do(); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s against a carrier that never answers = %v, want context.DeadlineExceeded", op, err)
		}
		if left, ok := c.left[op]; !ok || left > 30*time.Second || left < 29*time.Second {
			t.Errorf("%s reached the carrier with deadline %v away (set: %v), want 30s", op, left, ok)
		}
	}
}

type closeCarrier struct {
	deadlineCarrier
	closed int
}

func (c *closeCarrier) Close() error { c.closed++; return errors.New("closed") }

// TestRemoteCloseReleasesCarrier: closing the proxy closes its carrier
// and reports the carrier's answer.
func TestRemoteCloseReleasesCarrier(t *testing.T) {
	c := &closeCarrier{}
	if err := NewRemote(c).Close(); err == nil || err.Error() != "closed" || c.closed != 1 {
		t.Fatalf("Close() = %v after %d carrier closes", err, c.closed)
	}
}
