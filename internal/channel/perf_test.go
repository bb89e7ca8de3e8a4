package channel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/naming"
	"repro/internal/values"
	"repro/internal/wire"
)

// blockingServant parks every Invoke until release is closed and reports how
// many are parked, so a test can count servant executions running at once.
type blockingServant struct {
	cur     atomic.Int64
	release chan struct{}
}

func (g *blockingServant) Invoke(context.Context, string, []values.Value) (string, []values.Value, error) {
	g.cur.Add(1)
	<-g.release
	g.cur.Add(-1)
	return "OK", nil, nil
}

// TestWorkerPoolDefaults pins the pool's size: a server runs GOMAXPROCS×4
// servant executions at once, and that many calls all reach their servant
// while every earlier one is still executing.
func TestWorkerPoolDefaults(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	g := &blockingServant{release: make(chan struct{})}
	id := ifaceID(78)
	if err := env.server.Register(id, nil, g); err != nil {
		t.Fatal(err)
	}
	bg, err := Bind(naming.InterfaceRef{ID: id, TypeName: "Gate", Endpoint: "sim://server"},
		BindConfig{Transport: env.net})
	if err != nil {
		t.Fatal(err)
	}
	defer bg.Close()
	workers := runtime.GOMAXPROCS(0) * 4
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := bg.Invoke(context.Background(), "Anything", nil); err != nil {
				t.Error(err)
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for g.cur.Load() < int64(workers) {
		if time.Now().After(deadline) {
			t.Fatalf("%d executions in flight, want %d (GOMAXPROCS×4)", g.cur.Load(), workers)
		}
		time.Sleep(time.Millisecond)
	}
	close(g.release)
	wg.Wait()
}

// gateServant counts concurrent Invoke executions and answers after a
// short pause, so overlapping calls are observable.
type gateServant struct {
	cur, max atomic.Int64
}

func (g *gateServant) Invoke(context.Context, string, []values.Value) (string, []values.Value, error) {
	c := g.cur.Add(1)
	for {
		m := g.max.Load()
		if c <= m || g.max.CompareAndSwap(m, c) {
			break
		}
	}
	time.Sleep(time.Millisecond)
	g.cur.Add(-1)
	return "OK", nil, nil
}

// TestWorkerPoolBoundsConcurrency drives many more concurrent calls than
// the pool and its queue hold down one connection: at most the GOMAXPROCS×4
// workers plus the connection's read loop (inline overflow) may execute
// servant code at once, and every call must still be answered.
func TestWorkerPoolBoundsConcurrency(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	g := &gateServant{}
	id := ifaceID(77)
	if err := env.server.Register(id, nil, g); err != nil {
		t.Fatal(err)
	}
	bg, err := Bind(naming.InterfaceRef{ID: id, TypeName: "Gate", Endpoint: "sim://server"},
		BindConfig{Transport: env.net})
	if err != nil {
		t.Fatal(err)
	}
	defer bg.Close()

	workers := runtime.GOMAXPROCS(0) * 4
	calls := workers * 8 // the queue holds workers×4: the rest overflow inline
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			term, _, err := bg.Invoke(context.Background(), "Anything", nil)
			if err != nil {
				errs <- err
			} else if term != "OK" {
				errs <- fmt.Errorf("term = %q", term)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if m := g.max.Load(); m > int64(workers)+1 {
		t.Fatalf("max concurrent executions = %d, want <= %d (GOMAXPROCS×4 workers + inline read loop)", m, workers+1)
	}
}

// TestServerCloseDrainsWorkers ensures Close waits for queued work: after
// Close returns, no servant execution is still in flight.
func TestServerCloseDrainsWorkers(t *testing.T) {
	env := newEnv(t, ServerConfig{})
	b := env.bind(t, BindConfig{})
	var wg sync.WaitGroup
	// Twice the pool, so Close finds work queued behind busy workers.
	for i := 0; i < runtime.GOMAXPROCS(0)*4*2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Errors are fine once the server starts closing; the point is
			// that Close below never races a worker.
			_, _, _ = b.Invoke(context.Background(), "Echo",
				[]values.Value{values.Str(fmt.Sprint(i))})
		}(i)
	}
	time.Sleep(2 * time.Millisecond)
	if err := env.server.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestGuardEviction checks the replay guard's binding bound: it tracks
// 1,024 bindings, and the 1,025th evicts the oldest.
func TestGuardEviction(t *testing.T) {
	s := NewServer(nil, ServerConfig{ReplayGuard: true})
	for bid := uint64(1); bid <= 1025; bid++ {
		v, _ := s.guardCheck(&wire.Message{Kind: wire.Call, BindingID: bid, Correlation: 1})
		if v != guardFresh {
			t.Fatalf("binding %d: verdict = %v, want fresh", bid, v)
		}
		if bid == 1024 {
			if _, ok := s.guards[1]; !ok {
				t.Fatal("binding 1 evicted before the guard was full")
			}
		}
	}
	if len(s.guards) != 1024 {
		t.Fatalf("guards tracked = %d, want 1024", len(s.guards))
	}
	if _, ok := s.guards[1]; ok {
		t.Fatal("oldest binding 1 still tracked after eviction")
	}
	if _, ok := s.guards[1025]; !ok {
		t.Fatal("newest binding 1025 not tracked")
	}
	// An evicted binding that reappears is tracked afresh (its correlation
	// history restarts, so the duplicate defence degrades gracefully rather
	// than growing without bound).
	if v, _ := s.guardCheck(&wire.Message{Kind: wire.Call, BindingID: 1, Correlation: 9}); v != guardFresh {
		t.Fatalf("re-tracked binding verdict = %v, want fresh", v)
	}
	if len(s.guards) != 1024 {
		t.Fatalf("guards tracked after re-track = %d, want 1024", len(s.guards))
	}
}

// TestPooledFrameAliasingStress hammers one server from many goroutines
// with distinct payloads while frame buffers recycle through the pool; any
// aliasing bug (a frame recycled while a decoded view or cached reply still
// needs it) surfaces as a wrong echo or a race report under -race.
func TestPooledFrameAliasingStress(t *testing.T) {
	env := newEnv(t, ServerConfig{ReplayGuard: true})
	const goroutines = 8
	const calls = 400 // three replay windows, so cached reply frames are evicted throughout
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Churn the frame pool from outside the invocation path to maximise
	// buffer reuse across goroutines.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			f := wire.GetFrame(256)
			f = append(f, 0xEE)
			wire.PutFrame(f)
		}
	}()
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b, err := Bind(env.ref, BindConfig{Transport: env.net, Type: echoType()})
			if err != nil {
				errs <- err
				return
			}
			defer b.Close()
			for i := 0; i < calls; i++ {
				msg := fmt.Sprintf("g%d-call-%d-payload-%s", g, i, "0123456789abcdef")
				term, res, err := b.Invoke(context.Background(), "Echo",
					[]values.Value{values.Str(msg)})
				if err != nil {
					errs <- fmt.Errorf("g%d call %d: %v", g, i, err)
					return
				}
				if term != "OK" || len(res) != 1 {
					errs <- fmt.Errorf("g%d call %d: term=%q res=%v", g, i, term, res)
					return
				}
				if got, _ := res[0].AsString(); got != msg {
					errs <- fmt.Errorf("g%d call %d: echo corrupted: %q != %q", g, i, got, msg)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
