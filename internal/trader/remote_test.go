package trader

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/constraint"
	"repro/internal/engineering"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/relocator"
	"repro/internal/values"
	"repro/internal/wire"
)

// deployTrader hosts a trader as an infrastructure object on a node and
// returns a Remote proxy bound to it.
func deployTrader(t *testing.T, net *netsim.Network, reloc *relocator.Relocator, host string, tr Shard) (*Remote, naming.InterfaceRef) {
	t.Helper()
	node, err := engineering.NewNode(engineering.NodeConfig{
		ID:        naming.NodeID(host),
		Endpoint:  naming.Endpoint("sim://" + host),
		Transport: net.From(host),
		Locations: reloc,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	node.Behaviors().Register("odp.trader", func(values.Value) (engineering.Behavior, error) {
		return &Servant{T: tr}, nil
	})
	capsule, err := node.CreateCapsule()
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := capsule.CreateCluster(engineering.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	obj, err := cluster.CreateObject("odp.trader", values.Null())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := obj.AddInterface(InterfaceType())
	if err != nil {
		t.Fatal(err)
	}
	b, err := node.Bind(ref, channel.BindConfig{Type: InterfaceType(), Locator: reloc})
	if err != nil {
		t.Fatal(err)
	}
	remote := NewRemote(b)
	t.Cleanup(func() { remote.Close() })
	return remote, ref
}

func TestCrossNodeFederationViaRemote(t *testing.T) {
	// Two traders on different nodes, federated through a Remote proxy —
	// the full "interworking between trading domains" picture.
	net := netsim.New(2)
	reloc := relocator.New()
	repo := repoWithBank(t)
	t1, _ := frontEnd(t, repo, "T1", 1)
	t2 := New("T2", repo)
	_, _ = deployTrader(t, net, reloc, "host1", t1)
	remote2, _ := deployTrader(t, net, reloc, "host2", t2)

	// T1 links to T2 through the network.
	t1.Link("t2", remote2)
	if _, err := t2.Export("BankManager", refOf("BankManager", 5), values.Null()); err != nil {
		t.Fatal(err)
	}
	offers, err := t1.Import(ImportRequest{ServiceType: "BankTeller", MaxHops: 1})
	if err != nil {
		t.Fatalf("federated import: %v", err)
	}
	if len(offers) != 1 || offers[0].Ref.ID.Nonce != 5 {
		t.Errorf("offers = %v", nonces(offers))
	}
}

func TestOfferValueRoundTrip(t *testing.T) {
	o := Offer{
		ID:          "T1/9",
		ServiceType: "BankTeller",
		Ref:         refOf("BankManager", 3),
		Properties:  rec(values.F("queue", values.Int(1))),
	}
	got, err := offerFromValue(offerToValue(o))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != o.ID || got.ServiceType != o.ServiceType || got.Ref != o.Ref ||
		!got.Properties.Equal(o.Properties) {
		t.Errorf("round trip: %+v vs %+v", got, o)
	}
	// Malformed offers fail to decode.
	if _, err := offerFromValue(values.Record()); err == nil {
		t.Error("empty record should fail")
	}
	if _, err := offerFromValue(values.Record(values.F("id", values.Str("x")))); err == nil {
		t.Error("missing fields should fail")
	}
}

// TestServantArity: a servant registered untyped, or joined to a group in
// process, has no stub checking argument counts in front of it, so a
// short call to any declared operation must come back as the Error
// termination, not a panic.
func TestServantArity(t *testing.T) {
	s := &Servant{T: New("T1", repoWithBank(t))}
	for _, op := range InterfaceType().Operations {
		n := len(op.Params)
		if got, ok := arity[op.Name]; !ok || got != n {
			t.Errorf("arity[%s] = %d, %v; the interface type declares %d parameters", op.Name, got, ok, n)
		}
		for _, args := range [][]values.Value{nil, make([]values.Value, n-1)} {
			term, res, err := s.Invoke(context.Background(), op.Name, args)
			if err != nil || term != "Error" || len(res) != 1 {
				t.Errorf("%s with %d of %d arguments = %q, %v, %v; want the Error termination", op.Name, len(args), n, term, res, err)
			}
		}
	}
	if _, _, err := s.Invoke(context.Background(), "NoSuchOp", nil); err == nil {
		t.Error("unknown operation should be an error")
	}
}

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
	ops := map[string]func() error{
		"Export":   func() error { _, err := r.Export("BankTeller", refOf("BankTeller", 1), values.Null()); return err },
		"Withdraw": func() error { return r.Withdraw("T/1") },
		"Install": func() error {
			return r.Install(Offer{ID: "T/1", ServiceType: "BankTeller", Ref: refOf("BankTeller", 1)})
		},
		"Import": func() error { _, err := r.Import(ImportRequest{ServiceType: "BankTeller"}); return err },
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

// TestServantRefusesHostileConstraint: a peer's Import carries its
// constraint as a string of up to the wire's frame limit. Three that nest
// or chain millions deep used to overflow the trader's stack — a fatal
// error no recover catches, which took the whole process down; each is now
// answered with the Error termination, quickly.
func TestServantRefusesHostileConstraint(t *testing.T) {
	s := &Servant{T: New("t", repoWithBank(t))}
	for name, src := range map[string]string{
		"nested parentheses": strings.Repeat("(", 8_388_607) + "1" + strings.Repeat(")", 8_388_607),
		"a run of nots":      strings.Repeat("not ", 4_194_303) + "true",
		"a chain of sums":    "1" + strings.Repeat("+1", 8_388_607),
	} {
		if len(src) > wire.MaxLen {
			t.Fatalf("%s: %d bytes, over the frame limit", name, len(src))
		}
		start := time.Now()
		term, res, err := s.Invoke(context.Background(), "Import", []values.Value{
			values.Str("BankTeller"), values.Str(src), values.Int(int64(PrefFirst)), values.Str(""), values.Int(0), values.Int(0),
		})
		if err != nil || term != "Error" || len(res) != 1 {
			t.Fatalf("%s: Import = %s %v, %v; want the Error termination", name, term, res, err)
		}
		if msg, _ := res[0].AsString(); !strings.Contains(msg, constraint.ErrSyntax.Error()) {
			t.Errorf("%s: Error says %.80q", name, msg)
		}
		if d := time.Since(start); d > 500*time.Millisecond {
			t.Errorf("%s: answered in %v", name, d)
		}
	}
}
