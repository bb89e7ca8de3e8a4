package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/types"
	"repro/internal/values"
)

func validTemplate() *ObjectTemplate {
	return &ObjectTemplate{
		Name:     "branch",
		Behavior: "bank.branch",
		Arg:      values.Null(),
		Interfaces: []InterfaceDecl{
			{Type: types.OpInterface("T", types.Announce("Ping"))},
			{Type: types.OpInterface("U", types.Announce("Pong")), Contract: Contract{Require: TransparencySet(Access | Relocation)}},
		},
	}
}

func TestTemplateValidate(t *testing.T) {
	if err := validTemplate().Validate(); err != nil {
		t.Fatalf("valid template rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*ObjectTemplate)
	}{
		{"empty-name", func(o *ObjectTemplate) { o.Name = "" }},
		{"empty-behavior", func(o *ObjectTemplate) { o.Behavior = "" }},
		{"no-interfaces", func(o *ObjectTemplate) { o.Interfaces = nil }},
		{"nil-type", func(o *ObjectTemplate) { o.Interfaces[0].Type = nil }},
		{"invalid-type", func(o *ObjectTemplate) {
			o.Interfaces[0].Type = types.OpInterface("X", types.Announce("a"), types.Announce("a"))
		}},
		{"duplicate-type", func(o *ObjectTemplate) { o.Interfaces[1].Type = types.OpInterface("T", types.Announce("Ping")) }},
		{"bad-contract", func(o *ObjectTemplate) { o.Interfaces[0].Contract.MaxLatency = -1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tmpl := validTemplate()
			c.mut(tmpl)
			if err := tmpl.Validate(); !errors.Is(err, ErrBadTemplate) && !errors.Is(err, ErrBadContract) {
				if err == nil {
					t.Fatal("Validate should fail")
				}
				t.Errorf("err = %v", err)
			}
		})
	}
}

func TestTransparencySet(t *testing.T) {
	s := TransparencySet(Access | Failure)
	if !s.Has(Access) || !s.Has(Failure) || s.Has(Migration) {
		t.Errorf("set membership wrong: %v", s)
	}
	if got := TransparencySet(0).String(); got != "none" {
		t.Errorf("empty set = %q", got)
	}
	if got := TransparencySet(Access | Transaction).String(); got != "access+transaction" {
		t.Errorf("set string = %q", got)
	}
	if got := TransparencySet(1 << 12).String(); got == "none" {
		t.Errorf("unknown bits should be reported: %q", got)
	}
}

func TestContractValidate(t *testing.T) {
	good := []Contract{
		{},
		{Require: TransparencySet(AllTransparencies), MaxLatency: time.Second, MaxRetries: 2, Security: SecurityAudited, Replicas: 5},
	}
	for i, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("good contract %d rejected: %v", i, err)
		}
	}
	bad := []Contract{
		{Require: TransparencySet(1 << 12)},
		{MaxLatency: -time.Second},
		{MaxRetries: -1},
		{Replicas: -1},
		{Replicas: 3}, // replicas without Replication
		{Security: SecurityLevel(9)},
	}
	for i, c := range bad {
		if err := c.Validate(); !errors.Is(err, ErrBadContract) {
			t.Errorf("bad contract %d: err = %v", i, err)
		}
	}
}

func TestContractDefaults(t *testing.T) {
	if got := (Contract{}).EffectiveRetries(); got != 0 {
		t.Errorf("no-failure retries = %d", got)
	}
	if got := (Contract{Require: TransparencySet(Failure)}).EffectiveRetries(); got != 3 {
		t.Errorf("failure default retries = %d", got)
	}
	if got := (Contract{Require: TransparencySet(Failure), MaxRetries: 7}).EffectiveRetries(); got != 7 {
		t.Errorf("explicit retries = %d", got)
	}
	if got := (Contract{}).EffectiveReplicas(); got != 1 {
		t.Errorf("no-replication replicas = %d", got)
	}
	if got := (Contract{Require: TransparencySet(Replication)}).EffectiveReplicas(); got != 3 {
		t.Errorf("replication default = %d", got)
	}
	if got := (Contract{Require: TransparencySet(Replication), Replicas: 5}).EffectiveReplicas(); got != 5 {
		t.Errorf("explicit replicas = %d", got)
	}
}

func TestSecurityLevelString(t *testing.T) {
	for l, want := range map[SecurityLevel]string{
		SecurityNone: "none", SecurityAuthenticated: "authenticated", SecurityAudited: "audited",
		SecurityLevel(9): "securitylevel(9)",
	} {
		if got := l.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(l), got, want)
		}
	}
}

func TestActivitySequence(t *testing.T) {
	a := NewActivity(context.Background())
	var order []int
	err := a.Do(
		func(context.Context) error { order = append(order, 1); return nil },
		func(context.Context) error { order = append(order, 2); return nil },
	)
	if err != nil || len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("Do = %v, order = %v", err, order)
	}
	sentinel := errors.New("stop")
	err = a.Do(
		func(context.Context) error { return sentinel },
		func(context.Context) error { order = append(order, 3); return nil },
	)
	if !errors.Is(err, sentinel) || len(order) != 2 {
		t.Errorf("sequence should stop at first error: %v, %v", err, order)
	}
	if err := a.End(); err != nil {
		t.Fatal(err)
	}
}

func TestActivityForkJoin(t *testing.T) {
	a := NewActivity(context.Background())
	f, err := a.Fork(func(context.Context) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Join(); err != nil {
		t.Errorf("Join = %v", err)
	}
	if err := f.Join(); !errors.Is(err, ErrJoined) {
		t.Errorf("second Join = %v", err)
	}
	sentinel := errors.New("branch failed")
	f2, err := a.Fork(func(context.Context) error { return sentinel })
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.Join(); !errors.Is(err, sentinel) {
		t.Errorf("failed branch Join = %v", err)
	}
	if err := a.End(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Fork(func(context.Context) error { return nil }); !errors.Is(err, ErrActivityEnded) {
		t.Errorf("fork after end = %v", err)
	}
	if err := a.End(); !errors.Is(err, ErrActivityEnded) {
		t.Errorf("double end = %v", err)
	}
}

func TestActivityEndJoinsOutstandingForks(t *testing.T) {
	a := NewActivity(context.Background())
	sentinel := errors.New("late failure")
	if _, err := a.Fork(func(context.Context) error {
		time.Sleep(5 * time.Millisecond)
		return sentinel
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.End(); !errors.Is(err, sentinel) {
		t.Errorf("End should surface unjoined fork error: %v", err)
	}
}

func TestActivityParallel(t *testing.T) {
	a := NewActivity(context.Background())
	var n atomic.Int32
	err := a.Parallel(
		func(context.Context) error { n.Add(1); return nil },
		func(context.Context) error { n.Add(1); return nil },
		func(context.Context) error { n.Add(1); return nil },
	)
	if err != nil || n.Load() != 3 {
		t.Errorf("Parallel = %v, n = %d", err, n.Load())
	}
	sentinel := errors.New("one failed")
	err = a.Parallel(
		func(context.Context) error { return nil },
		func(context.Context) error { return sentinel },
	)
	if !errors.Is(err, sentinel) {
		t.Errorf("Parallel error = %v", err)
	}
	if err := a.End(); err != nil {
		t.Fatal(err)
	}
	if err := a.Parallel(func(context.Context) error { return nil }); !errors.Is(err, ErrActivityEnded) {
		t.Errorf("parallel after end = %v", err)
	}
}

func TestActivitySpawnIsIndependent(t *testing.T) {
	a := NewActivity(context.Background())
	started := make(chan struct{})
	cancelled := make(chan struct{})
	if err := a.Spawn(func(ctx context.Context) {
		close(started)
		<-ctx.Done()
		close(cancelled)
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := a.End(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-cancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("spawned branch not cancelled by End")
	}
	a.drainSpawned()
	if err := a.Spawn(func(context.Context) {}); !errors.Is(err, ErrActivityEnded) {
		t.Errorf("spawn after end = %v", err)
	}
}

func TestActivityContextCancellationStopsSequence(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	a := NewActivity(ctx)
	cancel()
	err := a.Do(func(context.Context) error {
		t.Error("action should not run after cancellation")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
}

type activityKey struct{}

// TestActivityContext: the activity's context is the one its actions
// run under — it carries the caller's values, is live while the activity
// runs, and is cancelled when the activity ends.
func TestActivityContext(t *testing.T) {
	a := NewActivity(context.WithValue(context.Background(), activityKey{}, "teller"))
	ctx := a.Context()
	if got := ctx.Value(activityKey{}); got != "teller" {
		t.Fatalf("activity context value = %v, want the caller's", got)
	}
	if err := a.Do(func(actx context.Context) error {
		if actx != ctx {
			t.Error("action ran under a context other than the activity's")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ctx.Err() != nil {
		t.Fatal("activity context done before End")
	}
	if err := a.End(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(ctx.Err(), context.Canceled) {
		t.Fatalf("activity context after End: %v, want canceled", ctx.Err())
	}
}
