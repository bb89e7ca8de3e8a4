package odp

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bank"
	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/mgmt"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/transactions"
	"repro/internal/typerepo"
	"repro/internal/values"
)

// allModes is every Config mode switched on at once — the combination
// whose wiring used to depend on the order of the Enable*/Shard* calls.
func allModes() Config {
	return Config{
		Seed:         9,
		Management:   true,
		Breakers:     &policy.BreakerConfig{},
		TraderShards: 3,
		BusShards:    4,
		TypeReplicas: 2,
		Recovery:     &health.ControllerConfig{},
		Health: &health.Config{
			Interval:     time.Millisecond,
			MinTimeout:   5 * time.Millisecond,
			SuspectAfter: 2,
			DeadAfter:    4,
		},
	}
}

// TestConfigWiring checks, for each mode alone and for all of them
// together, that New wired what the field asks for and nothing else.
func TestConfigWiring(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero", Config{}},
		{"management", Config{Management: true}},
		{"breakers", Config{Breakers: &policy.BreakerConfig{}}},
		{"trader-shards", Config{TraderShards: 2}},
		{"bus-shards", Config{BusShards: 3}},
		{"type-replicas", Config{TypeReplicas: 2}},
		{"health", Config{Health: &health.Config{}}},
		{"recovery", Config{Recovery: &health.ControllerConfig{}}},
		{"all", allModes()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			if got := s.Mgmt() != nil; got != cfg.Management {
				t.Errorf("management domain present = %v", got)
			}
			// Zero TraderShards is the one-shard front-end, its shard named
			// after the system.
			wantTrader := []string{"trader-0"}
			for i := 1; i < cfg.TraderShards; i++ {
				wantTrader = append(wantTrader, fmt.Sprintf("trader-%d", i))
			}
			var got []string
			for name := range s.Directory.LegStats() {
				got = append(got, name)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, wantTrader) {
				t.Errorf("directory shards = %v, want %v", got, wantTrader)
			}
			// Zero BusShards is the one-shard bus, its shard named "bus".
			wantShards := []string{"bus"}
			if cfg.BusShards > 0 {
				wantShards = nil
				for i := 0; i < cfg.BusShards; i++ {
					wantShards = append(wantShards, fmt.Sprintf("b%d", i))
				}
			}
			if got := s.Bus.ShardNames(); !reflect.DeepEqual(got, wantShards) {
				t.Errorf("bus shards = %v, want %v", got, wantShards)
			}
			if m := s.Mgmt(); m != nil {
				for _, sh := range wantShards {
					if name := "bus." + sh + ".published"; !strings.Contains(m.Registry.Dump(), name) {
						t.Errorf("no %s instrument in the management dump", name)
					}
				}
			}
			if _, ok := s.Types.(*typerepo.Replicated); ok != (cfg.TypeReplicas > 0) {
				t.Errorf("Types = %T with TypeReplicas %d", s.Types, cfg.TypeReplicas)
			}
			env := s.Env("client")
			// Every system locates through its relocation cache.
			if cache := s.RelocationCache(); cache == nil || env.Locator != cache {
				t.Errorf("cache = %v, Env locator = %T", cache, env.Locator)
			}
			if env.Sessions != s.SessionsFor("client") {
				t.Error("Env does not share the host's session manager")
			}
			if got := env.Sessions.Breakers() != nil; got != (cfg.Breakers != nil) {
				t.Errorf("breakers on the host's sessions = %v", got)
			}
			if got := s.Detector() != nil; got != (cfg.Health != nil) {
				t.Errorf("detector present = %v", got)
			}
			if got := s.Recovery() != nil; got != (cfg.Recovery != nil) {
				t.Errorf("controller present = %v", got)
			}
			if s.Net == nil {
				t.Error("Net is nil on the simulator")
			}
		})
	}
}

// TestAllModesDeliverThroughShardedBus is the case that used to depend on
// call order: with the bus sharded and recovery and management on,
// liveness transitions still reach the controller, and every layer has
// its instruments.
func TestAllModesDeliverThroughShardedBus(t *testing.T) {
	s, err := New(allModes())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.CreateNode("alpha"); err != nil {
		t.Fatal(err)
	}
	s.SessionsFor("client")

	// A detector verdict reaches the controller over TopicLiveness.
	dead := make(chan string, 1)
	s.Recovery().SetPlan("ghost", health.Plan{OnDead: func(_ context.Context, ep string) error {
		dead <- ep
		return nil
	}})
	if err := s.Detector().Watch("ghost", func(context.Context) (time.Duration, error) {
		return 0, errors.New("down")
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case ep := <-dead:
		if ep != "ghost" {
			t.Fatalf("OnDead ran for %q", ep)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the dead verdict never reached the recovery controller")
	}

	dump := s.Mgmt().Registry.Dump()
	busShard := s.Bus.ShardNames()[0]
	for _, name := range []string{
		"trader.trader.shard.trader-0.offers",
		"trader.trader.ring_epoch",
		"bus." + busShard + ".published",
		"policy.client.breaker.open_now",
		"session.client.",
		"channel.server.alpha.calls",
		"health.ghost.state",
		"net.sim.sent",
		"relocator.lookups",
		"relocator.cache.evictions",
		"typerepo.resyncs",
		"recovery.pending",
	} {
		if !strings.Contains(dump, name) {
			t.Errorf("no %s instrument in the management dump", name)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{TraderShards: -1}, {BusShards: -1}, {TypeReplicas: -1},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted a negative count", cfg)
		}
	}
	// A scheme no transport serves is refused where it is first used.
	s, err := New(Config{Listen: "carrier-pigeon://coop"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.CreateNode("n"); !errors.Is(err, netsim.ErrUnknownScheme) {
		t.Errorf("node on an unknown listen scheme = %v", err)
	}
}

func TestWatchNodeUnknownNode(t *testing.T) {
	s, err := New(Config{Health: &health.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WatchNode("typo"); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("WatchNode of a node that was never created = %v, want ErrNoSuchNode", err)
	}
	if _, _, watched := s.Detector().State("typo"); watched {
		t.Fatal("the detector is probing an endpoint that does not exist")
	}
}

// TestFacadeOverTCP runs the whole facade — sharded trader and bus,
// replicated types, relocation cache, breakers, detector, management —
// over loopback sockets: the listen endpoint's scheme is all that differs
// from the simulator.
func TestFacadeOverTCP(t *testing.T) {
	cfg := allModes()
	cfg.Listen = "tcp://127.0.0.1:0"
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Net != nil {
		t.Fatal("a simulated network exists off the simulator")
	}
	node, err := s.CreateNode("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if node.Endpoint().Scheme() != "tcp" || strings.HasSuffix(string(node.Endpoint()), ":0") {
		t.Fatalf("node endpoint = %s, want a bound tcp port", node.Endpoint())
	}
	bank.RegisterBehavior(node.Behaviors(), transactions.NewCoordinator(), transactions.NewStore("b", nil))
	if _, err := s.Deploy(node, bank.Template("branch"), values.Record(
		values.F("city", values.Str("brisbane")),
	)); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	contract := core.Contract{Require: core.TransparencySet(core.Access | core.Location | core.Relocation | core.Failure)}
	mgr, err := s.ImportAndBind("client", "BankManager", "city == 'brisbane'", contract)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	term, res, err := mgr.Invoke(ctx, "CreateAccount", []values.Value{values.Str("alice")})
	if err != nil || term != "OK" {
		t.Fatalf("CreateAccount = %q, %v", term, err)
	}
	tel, err := s.ImportAndBind("client", "BankTeller", "", contract)
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Close()
	if term, _, err := tel.Invoke(ctx, "Deposit", []values.Value{values.Str("alice"), res[0], values.Int(100)}); err != nil || term != "OK" {
		t.Fatalf("Deposit = %q, %v", term, err)
	}
	term, res, err = tel.Invoke(ctx, "Balance", []values.Value{values.Str("alice"), res[0]})
	if err != nil || term != "OK" {
		t.Fatalf("Balance = %q, %v", term, err)
	}
	if bal, _ := res[0].AsInt(); bal != 100 {
		t.Fatalf("balance = %d, want 100", bal)
	}
	if st := s.RelocationCache().Stats(); st.Hits == 0 {
		t.Fatalf("the relocation cache served no bind: %+v", st)
	}
	if s.SessionsFor("client").Breakers() == nil {
		t.Fatal("no breakers on the client's sessions")
	}

	// The node's Management interface is served over the same socket.
	var mref naming.InterfaceRef
	for _, ref := range s.Relocator.Entries() {
		if ref.TypeName == mgmt.InterfaceTypeName {
			mref = ref
		}
	}
	mb, err := s.Bind("client", mref, core.Contract{Require: core.TransparencySet(core.Access)})
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	term, res, err = mb.Invoke(ctx, "Metrics", nil)
	if err != nil || term != "OK" {
		t.Fatalf("Metrics = %q, %v", term, err)
	}
	if text, _ := res[0].AsString(); !strings.Contains(text, "channel.server.alpha.calls") {
		t.Fatalf("metrics served over tcp lack the node's dispatch counter:\n%s", text)
	}

	// The detector probes the socket the node really listens on.
	if err := s.WatchNode("alpha"); err != nil {
		t.Fatal(err)
	}
	waitOdp(t, "alive", func() bool {
		st, _, ok := s.Detector().State("alpha")
		return ok && st == health.Alive
	})
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	waitOdp(t, "dead", func() bool {
		st, _, _ := s.Detector().State("alpha")
		return st == health.Dead
	})
}
