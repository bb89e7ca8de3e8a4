package odp

import (
	"context"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode"

	"repro/internal/bank"
	"repro/internal/channel"
	"repro/internal/coordination"
	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/trader"
	"repro/internal/transactions"
	"repro/internal/typerepo"
	"repro/internal/values"
)

// TestManagementReadsStats: Management shows each component's own
// counters, not a second count of the same events. A system with every
// read-through source is driven through calls, a one-way the server stub
// refuses, a bad frame, a publish to a full queued subscriber, a trader
// export/import and a shard add; then every source's dump lines must equal
// the component's Stats(). (Before the read-through, the server's mirrored
// errors counter missed the refused one-way.)
func TestManagementReadsStats(t *testing.T) {
	s, err := New(Config{
		Seed:            5,
		Management:      true,
		TraderShards:    2,
		BusShards:       2,
		TypeReplicas:    2,
		RelocationCache: 16,
		Recovery:        &health.ControllerConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	node, err := s.CreateNode("alpha")
	if err != nil {
		t.Fatal(err)
	}
	srv := node.Server()
	bank.RegisterBehavior(node.Behaviors(), transactions.NewCoordinator(), transactions.NewStore("b", nil))
	dep, err := s.Deploy(node, bank.Template("branch"), values.Null()) // trader exports
	if err != nil {
		t.Fatal(err)
	}

	// Calls, through a trader import.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	contract := core.Contract{Require: core.TransparencySet(core.Access | core.Location | core.Relocation)}
	mgr, err := s.ImportAndBind("client", "BankManager", "", contract)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if term, _, err := mgr.Invoke(ctx, "CreateAccount", []values.Value{values.Str("alice")}); err != nil || term != "OK" {
		t.Fatalf("CreateAccount = %q, %v", term, err)
	}

	// A one-way to an operation the interface does not declare: an untyped
	// binding sends it, the server stub refuses it with no reply to send.
	untyped, err := channel.Bind(dep.Refs["BankManager"], channel.BindConfig{Sessions: s.SessionsFor("client")})
	if err != nil {
		t.Fatal(err)
	}
	defer untyped.Close()
	errs := srv.Stats().Errors
	if err := untyped.Announce(ctx, "NoSuchOp", nil); err != nil {
		t.Fatal(err)
	}
	waitOdp(t, "the refused one-way", func() bool { return srv.Stats().Errors == errs+1 })

	// A frame no server can decode.
	conn, err := s.Net.DialFrom(ctx, "rogue", node.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send([]byte("not a frame")); err != nil {
		t.Fatal(err)
	}
	waitOdp(t, "the bad frame", func() bool { return srv.Stats().BadFrames == 1 })
	conn.Close()

	// A publish to a full queued subscriber: the first event wedges the
	// drain, the second fills the queue, the third drops.
	entered, release := make(chan struct{}, 1), make(chan struct{})
	unsub := s.Bus.SubscribeQueued("test.full", nil, 1, func(coordination.Event) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	})
	s.Bus.Publish("test.full", values.Int(1))
	<-entered
	s.Bus.Publish("test.full", values.Int(2))
	s.Bus.Publish("test.full", values.Int(3))
	close(release)
	unsub()
	if st := s.Bus.Stats(); st.Dropped != 1 || st.Stalls != 1 {
		t.Fatalf("bus stats = %+v, want one drop", st)
	}

	// A shard joins the trader's ring.
	front := s.Directory.(*trader.ShardedTrader)
	if err := front.AddShard("shard9", trader.New("shard9", s.Types)); err != nil {
		t.Fatal(err)
	}
	if st := front.ShardStats(); st.Rebalances != 3 || st.Imports == 0 {
		t.Fatalf("front-end stats = %+v, want 3 ring changes and an import", st)
	}

	// expected names every component's Stats() fields as Management should;
	// the bus's shards are summed, as Bus.Stats sums them.
	expected := func() map[string]string {
		want := map[string]string{}
		lookups, misses, relocates := s.Relocator.Stats()
		for prefix, st := range map[string]any{
			"net.sim.":              s.Net.Stats(),
			"relocator.":            struct{ Lookups, Misses, Relocates uint64 }{lookups, misses, relocates},
			"relocator.cache.":      s.RelocationCache().Stats(),
			"typerepo.":             s.Types.(*typerepo.Replicated).Stats(),
			"trader.trader.":        front.ShardStats(),
			"recovery.":             s.Recovery().Stats(),
			"session.client.":       s.SessionsFor("client").Stats(),
			"channel.server.alpha.": srv.Stats(),
			"bus.":                  s.Bus.Stats(),
		} {
			v := reflect.ValueOf(st)
			for i := 0; i < v.NumField(); i++ {
				var b strings.Builder
				for j, c := range v.Type().Field(i).Name {
					if j > 0 && unicode.IsUpper(c) {
						b.WriteByte('_')
					}
					b.WriteRune(unicode.ToLower(c))
				}
				want[prefix+b.String()] = fmt.Sprint(v.Field(i).Interface())
			}
		}
		return want
	}
	for attempt := 0; ; attempt++ {
		before := expected()
		live := dumpValues(s.Mgmt().Registry.Dump(), s.Bus.ShardNames())
		if after := expected(); !reflect.DeepEqual(before, after) {
			// Something was still moving (a connection closing, say).
			if attempt == 100 {
				t.Fatalf("stats never settled:\n%v\n%v", before, after)
			}
			time.Sleep(5 * time.Millisecond)
			continue
		}
		for name, v := range before {
			if live[name] != v {
				t.Errorf("Management shows %s = %q, Stats() = %s", name, live[name], v)
			}
		}
		if before["channel.server.alpha.errors"] == "0" || before["bus.dropped"] != "1" ||
			before["channel.server.alpha.bad_frames"] != "1" || before["trader.trader.shards"] != "3" {
			t.Errorf("the drive left no trace: %v", before)
		}
		return
	}
}

// dumpValues indexes a dump's counter and gauge values by name. Each
// bus.<shard>.<field> named in busShards is summed into bus.<field>.
func dumpValues(dump string, busShards []string) map[string]string {
	out := map[string]string{}
	sums := map[string]int64{}
	for _, line := range strings.Split(dump, "\n") {
		f := strings.Fields(line)
		if len(f) != 3 || (f[0] != "counter" && f[0] != "gauge") {
			continue
		}
		out[f[1]] = f[2]
		for _, sh := range busShards {
			if field, ok := strings.CutPrefix(f[1], "bus."+sh+"."); ok {
				v, _ := strconv.ParseInt(f[2], 10, 64)
				sums["bus."+field] += v
			}
		}
	}
	for name, v := range sums {
		out[name] = strconv.FormatInt(v, 10)
	}
	return out
}
