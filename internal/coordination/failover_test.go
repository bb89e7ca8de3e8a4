package coordination

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/channel"
	"repro/internal/engineering"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/relocator"
	"repro/internal/values"
)

func TestFailoverGroupPromotes(t *testing.T) {
	g := NewFailoverGroup()
	sick := &fakeInvoker{fail: true}
	healthy := &fakeInvoker{}
	var promoted []string
	g.OnPromote = func(name string) error {
		promoted = append(promoted, name)
		return nil
	}
	if err := g.Add("primary", sick); err != nil {
		t.Fatal(err)
	}
	if err := g.Add("primary", &fakeInvoker{}); err == nil {
		t.Error("duplicate member should fail")
	}
	if err := g.Add("backup", healthy); err != nil {
		t.Fatal(err)
	}
	if g.Primary() != "primary" || g.Size() != 2 {
		t.Fatalf("initial state: %s/%d", g.Primary(), g.Size())
	}

	term, res, err := g.Invoke(context.Background(), "Inc", []values.Value{values.Int(1)})
	if err != nil || term != "OK" {
		t.Fatalf("Invoke = %q, %v, %v", term, res, err)
	}
	if !sick.closed {
		t.Error("failed primary should be closed")
	}
	if g.Primary() != "backup" || g.Promotions() != 1 {
		t.Errorf("after failover: primary=%s promotions=%d", g.Primary(), g.Promotions())
	}
	if len(promoted) != 1 || promoted[0] != "backup" {
		t.Errorf("OnPromote calls = %v", promoted)
	}
	// Only the backup executed the operation: primary-backup, not active.
	if healthy.calls != 1 || sick.calls != 1 /* the failed attempt */ {
		t.Errorf("calls: healthy=%d sick=%d", healthy.calls, sick.calls)
	}
}

func TestFailoverGroupExhaustion(t *testing.T) {
	g := NewFailoverGroup()
	if err := g.Add("a", &fakeInvoker{fail: true}); err != nil {
		t.Fatal(err)
	}
	if err := g.Add("b", &fakeInvoker{fail: true}); err != nil {
		t.Fatal(err)
	}
	_, _, err := g.Invoke(context.Background(), "Get", nil)
	if !errors.Is(err, ErrEmptyGroup) {
		t.Errorf("err = %v", err)
	}
	if g.Promotions() != 2 || g.Size() != 0 || g.Primary() != "" {
		t.Errorf("state = %d/%d/%q", g.Promotions(), g.Size(), g.Primary())
	}
}

// TestFailoverGroupPromotionHookFailure: a promoted member whose recovery
// failed serves nothing until a later invocation has run the hook again
// and it succeeded.
func TestFailoverGroupPromotionHookFailure(t *testing.T) {
	g := NewFailoverGroup()
	var hooks []string
	recoverErr := errors.New("recovery failed")
	g.OnPromote = func(name string) error {
		hooks = append(hooks, name)
		return recoverErr
	}
	if err := g.Add("a", &fakeInvoker{fail: true}); err != nil {
		t.Fatal(err)
	}
	b := &fakeInvoker{}
	if err := g.Add("b", b); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.Invoke(context.Background(), "Get", nil); !errors.Is(err, recoverErr) {
		t.Fatalf("first invoke = %v, want the promotion hook's failure", err)
	}
	// b is the primary now, but unrecovered: the next invocation retries
	// the hook, and while it fails b still serves nothing.
	if _, _, err := g.Invoke(context.Background(), "Get", nil); !errors.Is(err, recoverErr) {
		t.Fatalf("second invoke = %v, want the retried hook's failure", err)
	}
	if b.calls != 0 {
		t.Fatalf("the unrecovered member served %d invocations", b.calls)
	}
	recoverErr = nil
	if _, _, err := g.Invoke(context.Background(), "Get", nil); err != nil {
		t.Fatalf("invoke after a successful recovery = %v", err)
	}
	if _, _, err := g.Invoke(context.Background(), "Get", nil); err != nil {
		t.Fatal(err)
	}
	if want := []string{"b", "b", "b"}; !reflect.DeepEqual(hooks, want) || b.calls != 2 || g.Promotions() != 1 {
		t.Errorf("hooks %v, b served %d, promotions %d; want hooks %v, 2 served, 1 promotion",
			hooks, b.calls, g.Promotions(), want)
	}
}

// recoveryCheck is a backup that notes every invocation it serves before
// its promotion hook has run.
type recoveryCheck struct {
	fakeInvoker
	recovered atomic.Bool
	early     atomic.Int64
}

func (r *recoveryCheck) Invoke(ctx context.Context, op string, args []values.Value) (string, []values.Value, error) {
	if !r.recovered.Load() {
		r.early.Add(1)
	}
	return r.fakeInvoker.Invoke(ctx, op, args)
}

// TestFailoverGroupConcurrentPromotion: when the primary fails under
// several callers at once, exactly one of them promotes, the hook runs
// once, and the promoted member serves no caller before it has.
func TestFailoverGroupConcurrentPromotion(t *testing.T) {
	const callers, calls = 8, 20
	g := NewFailoverGroup()
	b := &recoveryCheck{}
	var hooks atomic.Int64
	g.OnPromote = func(name string) error {
		hooks.Add(1)
		b.recovered.Store(true)
		return nil
	}
	if err := g.Add("a", &fakeInvoker{fail: true}); err != nil {
		t.Fatal(err)
	}
	if err := g.Add("b", b); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if _, _, err := g.Invoke(context.Background(), "Get", nil); err != nil {
					t.Errorf("invoke: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if g.Promotions() != 1 || hooks.Load() != 1 || b.early.Load() != 0 || g.Primary() != "b" {
		t.Fatalf("promotions %d, hooks %d, served before recovery %d, primary %q; want 1, 1, 0, b",
			g.Promotions(), hooks.Load(), b.early.Load(), g.Primary())
	}
}

func TestFailoverGroupClose(t *testing.T) {
	g := NewFailoverGroup()
	a := &fakeInvoker{}
	if err := g.Add("a", a); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil || !a.closed {
		t.Errorf("close: %v, %v", err, a.closed)
	}
	if _, _, err := g.Invoke(context.Background(), "Get", nil); !errors.Is(err, ErrEmptyGroup) {
		t.Errorf("invoke after close = %v", err)
	}
}

func TestFailoverWithCheckpointRecovery(t *testing.T) {
	// The full primary-backup story: the primary's cluster is
	// checkpointed; when its node dies, the OnPromote hook recovers the
	// checkpoint at the backup's node, and the promoted member serves with
	// the primary's state.
	net := netsim.New(4)
	reloc := relocator.New()
	primaryNode := newNode(t, net, reloc, "primary")
	backupNode := newNode(t, net, reloc, "backup")

	capP, _ := primaryNode.CreateCapsule()
	cluster, err := capP.CreateCluster(engineering.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	obj, err := cluster.CreateObject("counter", values.Null())
	if err != nil {
		t.Fatal(err)
	}
	primaryRef, err := obj.AddInterface(counterIface())
	if err != nil {
		t.Fatal(err)
	}

	cs := NewCheckpointStore()
	g := NewFailoverGroup()
	pb, err := channel.Bind(primaryRef, channel.BindConfig{Transport: net.From("client"), Locator: reloc, Policy: policy.RetryPolicy{MaxAttempts: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Add("primary", pb); err != nil {
		t.Fatal(err)
	}
	// The backup invoker targets the SAME interface identity: after
	// recovery at the backup node the relocator redirects it there.
	bb, err := channel.Bind(primaryRef, channel.BindConfig{Transport: net.From("client"), Locator: reloc, Policy: policy.RetryPolicy{MaxAttempts: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Add("backup", bb); err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	ctx := context.Background()
	if _, _, err := g.Invoke(ctx, "Inc", []values.Value{values.Int(41)}); err != nil {
		t.Fatal(err)
	}
	// Checkpoint, then kill the primary node.
	if err := CheckpointNow(cluster, cs); err != nil {
		t.Fatal(err)
	}
	key := cs.Keys()[0]
	g.OnPromote = func(string) error {
		capB, err := backupNode.CreateCapsule()
		if err != nil {
			return err
		}
		_, err = RecoverCluster(capB, cs, key, engineering.ClusterOptions{})
		return err
	}
	if err := primaryNode.Close(); err != nil {
		t.Fatal(err)
	}

	term, res, err := g.Invoke(ctx, "Inc", []values.Value{values.Int(1)})
	if err != nil || term != "OK" {
		t.Fatalf("post-failover Invoke = %q, %v, %v", term, res, err)
	}
	if n, _ := res[0].AsInt(); n != 42 {
		t.Errorf("state after failover = %d, want 42 (checkpoint + 1)", n)
	}
	if g.Primary() != "backup" {
		t.Errorf("primary = %q", g.Primary())
	}
}
