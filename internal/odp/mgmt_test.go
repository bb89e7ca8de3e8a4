package odp

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
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
	"repro/internal/naming"
	"repro/internal/policy"
	"repro/internal/trader"
	"repro/internal/transactions"
	"repro/internal/typerepo"
	"repro/internal/types"
	"repro/internal/values"
)

// TestManagementReadsStats: Management shows each component's own
// counters, not a second count of the same events. A system with every
// read-through source is driven through calls, a one-way the server stub
// refuses, a bad frame, a publish to a subscribed topic, a trader
// export/import and a shard add and a health probe; then every source's
// dump lines must equal the component's Stats(), and no name is printed
// twice. (Before the read-through, the server's mirrored errors
// counter missed the refused one-way.)
func TestManagementReadsStats(t *testing.T) {
	t.Run("zero Config trader", testZeroConfigTraderLines)
	s, err := New(Config{
		Seed:         5,
		Management:   true,
		Breakers:     &policy.BreakerConfig{},
		TraderShards: 2,
		BusShards:    2,
		TypeReplicas: 2,
		Recovery:     &health.ControllerConfig{},
		// One probe at Watch, the next an hour later: the counts hold still.
		Health: &health.Config{Interval: time.Hour},
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

	// A publish to a subscribed topic moves the bus's published and
	// delivered lines, summed over its shards.
	busLines := func() (string, string) {
		live := dumpValues(s.Mgmt().Registry.Dump(), s.Bus.ShardNames())
		return live["bus.published"], live["bus.delivered"]
	}
	pub0, del0 := busLines()
	unsub := s.Bus.Subscribe("test.topic", func(coordination.Event) {})
	if n := s.Bus.Publish("test.topic", values.Int(1)); n != 1 {
		t.Fatalf("the publish delivered %d, want 1", n)
	}
	unsub()
	pub1, del1 := busLines()
	if p0, _ := strconv.Atoi(pub0); strconv.Itoa(p0+1) != pub1 {
		t.Fatalf("bus published %s after a publish, %s before", pub1, pub0)
	}
	if d0, _ := strconv.Atoi(del0); strconv.Itoa(d0+1) != del1 {
		t.Fatalf("bus delivered %s after a delivery, %s before", del1, del0)
	}

	// A shard joins the trader's ring.
	front := s.Directory
	if err := front.AddShard("shard9", trader.New("shard9", s.Types)); err != nil {
		t.Fatal(err)
	}
	if st := front.ShardStats(); st.Rebalances != 3 || st.Imports == 0 {
		t.Fatalf("front-end stats = %+v, want 3 ring changes and an import", st)
	}

	// A health probe of the node.
	if err := s.WatchNode("alpha"); err != nil {
		t.Fatal(err)
	}
	waitOdp(t, "the first probe", func() bool { return s.Detector().Stats()["alpha"].Probes == 1 })

	// expected names every component's Stats() fields as Management should;
	// a keyed set's members are <prefix><key>.<field>.
	expected := func() map[string]string {
		want := map[string]string{}
		var add func(prefix string, v reflect.Value)
		add = func(prefix string, v reflect.Value) {
			if v.Kind() == reflect.Map {
				for it := v.MapRange(); it.Next(); {
					add(prefix+it.Key().String()+".", it.Value())
				}
				return
			}
			for i := 0; i < v.NumField(); i++ {
				var b strings.Builder // a run of capitals is one word: WindowRTTNs is window_rtt_ns
				name := v.Type().Field(i).Name
				for j, c := range name {
					if j > 0 && unicode.IsUpper(c) && (!unicode.IsUpper(rune(name[j-1])) || j+1 < len(name) && unicode.IsLower(rune(name[j+1]))) {
						b.WriteByte('_')
					}
					b.WriteRune(unicode.ToLower(c))
				}
				switch f := v.Field(i); {
				case f.CanUint():
					want[prefix+b.String()] = strconv.FormatUint(f.Uint(), 10)
				case f.CanInt():
					want[prefix+b.String()] = strconv.FormatInt(f.Int(), 10)
				}
			}
		}
		for prefix, st := range map[string]any{
			"net.sim.":               s.Net.Stats(),
			"relocator.":             s.Relocator.Stats(),
			"relocator.cache.":       s.RelocationCache().Stats(),
			"typerepo.":              s.Types.(*typerepo.Replicated).Stats(),
			"trader.trader.":         front.ShardStats(),
			"trader.trader.shard.":   front.LegStats(),
			"recovery.":              s.Recovery().Stats(),
			"session.client.":        s.SessionsFor("client").Stats(),
			"policy.client.breaker.": s.SessionsFor("client").Breakers().Stats(),
			"health.":                s.Detector().Stats(),
			"channel.server.alpha.":  srv.Stats(),
		} {
			add(prefix, reflect.ValueOf(st))
		}
		return want
	}
	for attempt := 0; ; attempt++ {
		before := expected()
		dump := s.Mgmt().Registry.Dump()
		live := dumpValues(dump, s.Bus.ShardNames())
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
		if before["channel.server.alpha.errors"] == "0" ||
			before["channel.server.alpha.bad_frames"] != "1" || before["trader.trader.shards"] != "3" ||
			before["session.client.invocations"] == "0" || before["policy.client.breaker.opens"] != "0" ||
			before["health.alpha.probes"] != "1" || before["trader.trader.shard.shard9.offers"] == "" {
			t.Errorf("the drive left no trace: %v", before)
		}
		// No counter, gauge and histogram share a name.
		kinds := map[string]string{}
		for _, line := range strings.Split(dump, "\n") {
			if f := strings.Fields(line); len(f) >= 3 {
				if kinds[f[1]] != "" {
					t.Errorf("%s printed as both %s and %s", f[1], kinds[f[1]], f[0])
				}
				kinds[f[1]] = f[0]
			}
		}
		return
	}
}

// testZeroConfigTraderLines: the zero Config's trader is the one-shard
// front-end, and every line the singleton trader showed is still shown —
// the front-end's counters under the same names, the store's considered
// count in its shard's keyed set, the import latency among the front-end's
// histograms — and equals what the front-end reads.
func testZeroConfigTraderLines(t *testing.T) {
	s, err := New(Config{Management: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	node, err := s.CreateNode("alpha")
	if err != nil {
		t.Fatal(err)
	}
	bank.RegisterBehavior(node.Behaviors(), transactions.NewCoordinator(), transactions.NewStore("b", nil))
	if _, err := s.Deploy(node, bank.Template("branch"), values.Null()); err != nil {
		t.Fatal(err)
	}
	b, err := s.ImportAndBind("client", "BankManager", "", core.Contract{Require: core.TransparencySet(core.Access)})
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	fe, store := s.Directory.ShardStats(), s.Directory.LegStats()["trader-0"]
	if fe.Exports == 0 || fe.Imports == 0 || store.Considered == 0 {
		t.Fatalf("the drive left no trace: %+v, %+v", fe, store)
	}
	dump := s.Mgmt().Registry.Dump()
	live := dumpValues(dump, nil)
	for name, v := range map[string]uint64{
		"trader.trader.exports":                   fe.Exports,
		"trader.trader.withdraws":                 fe.Withdraws,
		"trader.trader.imports":                   fe.Imports,
		"trader.trader.matched":                   fe.Matched,
		"trader.trader.federated":                 fe.Federated,
		"trader.trader.links_skipped":             fe.LinksSkipped,
		"trader.trader.links_failed":              fe.LinksFailed,
		"trader.trader.shard.trader-0.considered": store.Considered,
	} {
		if want := strconv.FormatUint(v, 10); live[name] != want {
			t.Errorf("Management shows %s = %q, want %s", name, live[name], want)
		}
	}
	if !strings.Contains(dump, "histogram trader.trader.shards.import_latency_ns ") {
		t.Errorf("no import latency histogram in the dump:\n%s", dump)
	}
}

// TestManagementForgetsDepartedMembers: a keyed set's member that leaves
// — an endpoint the detector stops watching, a shard drained off the ring —
// leaves Management with it. (The pushed gauges these replaced stayed in
// the registry for the life of the node.)
func TestManagementForgetsDepartedMembers(t *testing.T) {
	s, err := New(Config{
		Seed:         7,
		Management:   true,
		TraderShards: 2,
		Health:       &health.Config{Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.CreateNode("n1"); err != nil {
		t.Fatal(err)
	}
	if err := s.WatchNode("n1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		typ := types.OpInterface(fmt.Sprintf("Svc%d", i))
		if err := s.Types.RegisterInterface(typ); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Directory.Export(typ.Name, naming.InterfaceRef{TypeName: typ.Name}, values.Null()); err != nil {
			t.Fatal(err)
		}
	}
	shown := func(prefix string) int {
		n := 0
		for name := range dumpValues(s.Mgmt().Registry.Dump(), nil) {
			if strings.HasPrefix(name, prefix) {
				n++
			}
		}
		return n
	}
	waitOdp(t, "the first probe", func() bool { return s.Detector().Stats()["n1"].Probes == 1 })
	if shown("health.n1.") == 0 || shown("trader.trader.shard.trader-0.") == 0 {
		t.Fatalf("members not shown before they leave:\n%s", s.Mgmt().Registry.Dump())
	}

	s.Detector().Unwatch("n1")
	if err := s.Directory.RemoveShard("trader-0"); err != nil {
		t.Fatal(err)
	}
	dump := s.Mgmt().Registry.Dump()
	if strings.Contains(dump, "health.n1.") || strings.Contains(dump, "trader.trader.shard.trader-0.") {
		t.Errorf("a departed member is still shown:\n%s", dump)
	}
	if got := dumpValues(dump, nil)["trader.trader.shard.trader-1.offers"]; got != "8" {
		t.Errorf("the remaining shard holds %s offers, want all 8", got)
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

// TestManagementReadsRuntime: Management shows the process's allocation
// counts, GC cycles and goroutines, read from runtime/metrics at each
// dump, and the three counts never fall between two dumps.
func TestManagementReadsRuntime(t *testing.T) {
	s, err := New(Config{Management: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	names := []string{"runtime.heap_allocs", "runtime.heap_alloc_bytes", "runtime.gc_cycles", "runtime.goroutines"}
	read := func() []int64 {
		live := dumpValues(s.Mgmt().Registry.Dump(), nil)
		out := make([]int64, len(names))
		for i, name := range names {
			v, err := strconv.ParseInt(live[name], 10, 64)
			if err != nil {
				t.Fatalf("%s = %q: %v", name, live[name], err)
			}
			out[i] = v
		}
		return out
	}
	first := read()
	runtime.GC()
	second := read()
	for i, name := range names[:3] {
		if second[i] < first[i] {
			t.Errorf("%s fell from %d to %d between two dumps", name, first[i], second[i])
		}
	}
	if first[0] == 0 || first[1] == 0 || second[2] == 0 || second[3] < 1 {
		t.Errorf("runtime counts %v then %v: want allocations, a GC cycle and a goroutine", first, second)
	}
}
