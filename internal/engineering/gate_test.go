package engineering

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/naming"
	"repro/internal/values"
)

// guardedNode is a fixture node whose channel endpoint runs the replay
// guard, as every node of an odp system does.
func (f *fixture) guardedNode(t *testing.T, name string) *Node {
	return f.node(t, name, NodeConfig{Server: channel.ServerConfig{ReplayGuard: true}})
}

// underLoad has 16 bindings from a client node loop Inc(1) on ref while
// change runs the given number of state changes, then requires that no
// caller saw an error and that the counter (deployed at 0) equals the
// increments acknowledged: no update lost, none run twice.
func underLoad(t *testing.T, f *fixture, ref naming.InterfaceRef, changes int, change func(i int) error) {
	t.Helper()
	const callers = 16
	client := f.node(t, "client", NodeConfig{})
	ctx := context.Background()
	one := []values.Value{values.Int(1)}
	var acked atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < callers; c++ {
		b := f.bind(t, client, ref)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := b.Invoke(ctx, "Inc", one); err != nil {
					t.Errorf("caller %d after %d acknowledged increments: %v", c, acked.Load(), err)
					return
				}
				acked.Add(1)
			}
		}()
	}
	for acked.Load() < callers { // every caller is in its loop
		time.Sleep(time.Millisecond)
	}
	var failed error
	for i := 0; i < changes && failed == nil; i++ {
		failed = change(i)
	}
	close(stop)
	wg.Wait()
	if failed != nil {
		t.Fatal(failed)
	}
	_, res, err := f.bind(t, client, ref).Invoke(ctx, "Get", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res[0].AsInt(); got != acked.Load() {
		t.Errorf("counter = %d after %d acknowledged increments", got, acked.Load())
	}
}

// TestMigrationStormLosesNothing: 100 migrations ping-pong a cluster
// between two nodes under 16 looping callers. Each migration drains the
// admitted calls, installs at the destination and only then withdraws, so
// no caller sees an error and every acknowledged increment is counted
// exactly once.
func TestMigrationStormLosesNothing(t *testing.T) {
	f := newFixture()
	nodes := []*Node{f.guardedNode(t, "alpha"), f.guardedNode(t, "beta")}
	k, ref := deploy(t, nodes[0], ClusterOptions{}, 0)
	capsules := make([]*Capsule, 2)
	for i, n := range nodes {
		var err error
		if capsules[i], err = n.CreateCapsule(); err != nil {
			t.Fatal(err)
		}
	}
	underLoad(t, f, ref, 100, func(i int) error {
		nk, err := k.MigrateTo(capsules[(i+1)%2])
		if err != nil {
			return err
		}
		k = nk
		return nil
	})
}

// TestDeactivationUnderLoadLosesNothing is the same conservation check for
// deactivation: 100 deactivate/reactivate cycles of an auto-reactivating
// cluster under 16 looping callers.
func TestDeactivationUnderLoadLosesNothing(t *testing.T) {
	f := newFixture()
	k, ref := deploy(t, f.guardedNode(t, "alpha"), ClusterOptions{AutoReactivate: true}, 0)
	underLoad(t, f, ref, 200, func(i int) error {
		if i%2 == 0 {
			return k.Deactivate()
		}
		// A call may have reactivated the cluster on demand already.
		if err := k.Reactivate(); err != nil && !errors.Is(err, ErrActive) {
			return err
		}
		return nil
	})
}

// stallBehavior is a counter whose Inc waits for release.
type stallBehavior struct {
	*counterBehavior
	entered chan<- struct{}
	release <-chan struct{}
}

func (s stallBehavior) Invoke(ctx context.Context, op string, args []values.Value) (string, []values.Value, error) {
	if op == "Inc" {
		s.entered <- struct{}{}
		<-s.release
	}
	return s.counterBehavior.Invoke(ctx, op, args)
}

// TestMigrationAbandonedWhenDrainRunsOut: a call that stays inside its
// behaviour past the drain bound makes MigrateTo give up at the bound.
// Nothing moves — no cluster at the destination, the relocator still
// names the source — and the source serves on, the stalled call included.
func TestMigrationAbandonedWhenDrainRunsOut(t *testing.T) {
	f := newFixture()
	src := f.node(t, "alpha", NodeConfig{})
	dst := f.node(t, "beta", NodeConfig{})
	entered, release := make(chan struct{}, 1), make(chan struct{})
	unstall := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unstall) // before the nodes close, whichever way the test ends
	stall := func(arg values.Value) (Behavior, error) {
		c, _ := newCounter(arg)
		return stallBehavior{c.(*counterBehavior), entered, release}, nil
	}
	src.Behaviors().Register("stall", stall)
	dst.Behaviors().Register("stall", stall) // only the drain can fail the move
	capsule, err := src.CreateCapsule()
	if err != nil {
		t.Fatal(err)
	}
	k, err := capsule.CreateCluster(ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o, err := k.CreateObject("stall", values.Int(5))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := o.AddInterface(counterType())
	if err != nil {
		t.Fatal(err)
	}
	b := f.bind(t, src, ref)
	ctx := context.Background()
	stalled := make(chan error, 1)
	go func() {
		_, _, err := b.Invoke(ctx, "Inc", []values.Value{values.Int(1)})
		stalled <- err
	}()
	<-entered

	dstCapsule, err := dst.CreateCapsule()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := k.MigrateTo(dstCapsule); err == nil {
		t.Fatal("MigrateTo succeeded with a call stalled inside the cluster")
	}
	if took := time.Since(start); took < drainBound || took > drainBound+time.Second {
		t.Errorf("MigrateTo gave up after %v, drain bound %v", took, drainBound)
	}
	if !k.Active() || len(dstCapsule.Clusters()) != 0 {
		t.Errorf("abandoned migration moved something: source active %v, %d clusters at the destination",
			k.Active(), len(dstCapsule.Clusters()))
	}
	if at, err := f.reloc.Lookup(ref.ID); err != nil || at.Endpoint != "sim://alpha" {
		t.Errorf("relocator after the abandoned migration = %+v, %v", at, err)
	}
	unstall()
	if err := <-stalled; err != nil {
		t.Fatalf("stalled call: %v", err)
	}
	_, res, err := b.Invoke(ctx, "Get", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res[0].AsInt(); got != 6 {
		t.Errorf("Get after the abandoned migration = %d, want 6", got)
	}
}
