package stub_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/naming"
	"repro/internal/relocator"
	"repro/internal/stub"
	"repro/internal/trader"
	"repro/internal/typerepo"
	"repro/internal/types"
	"repro/internal/values"
)

// call is one reading of a carrier: the route an operation took and how
// far away its context deadline was.
type call struct {
	route string        // "read" (InvokeRead) or "update" (Invoke)
	left  time.Duration // 0 without a deadline
}

// recorder is a carrier with InvokeRead, like a replica group. It records
// each call, then fails it the way a partitioned host would: by waiting a
// deadline out — a millisecond child of the proxy's context, so the test
// does not sit through the proxy's own.
type recorder struct {
	mu     sync.Mutex
	calls  map[string]call
	closed int
}

func (r *recorder) record(ctx context.Context, route, op string) (string, []values.Value, error) {
	c := call{route: route}
	if dl, ok := ctx.Deadline(); ok {
		c.left = time.Until(dl)
	}
	r.mu.Lock()
	r.calls[op] = c
	r.mu.Unlock()
	ctx, cancel := context.WithTimeout(ctx, time.Millisecond)
	defer cancel()
	<-ctx.Done()
	return "", nil, ctx.Err()
}

func (r *recorder) Invoke(ctx context.Context, op string, _ []values.Value) (string, []values.Value, error) {
	return r.record(ctx, "update", op)
}

func (r *recorder) InvokeRead(ctx context.Context, op string, _ []values.Value) (string, []values.Value, error) {
	return r.record(ctx, "read", op)
}

func (r *recorder) Close() error { r.closed++; return errors.New("closed") }

// route is one row of a service's routing table: an operation, the route
// it must take and a call of it through the proxy. An operation whose
// signature has no error to return reports the outcome it swallowed as
// context.DeadlineExceeded, so its row checks the deadline all the same.
type route struct {
	op, route string
	do        func() error
}

func quiet(do func()) func() error {
	return func() error { do(); return context.DeadlineExceeded }
}

var ref = naming.InterfaceRef{
	ID:       naming.InterfaceID{Object: naming.ObjectID{Cluster: naming.ClusterID{Capsule: naming.CapsuleID{Node: "a", Seq: 1}, Seq: 1}, Seq: 1}, Seq: 1, Nonce: 1},
	TypeName: "BankTeller",
	Endpoint: "sim://a",
}

// services is one routing table per service: Lookup and Snapshot of the
// relocator, Import of the trader and the type repository's nine queries
// are reads, every other operation an update.
var services = []struct {
	name  string
	it    *types.Interface
	table func(c *recorder) []route
}{
	{"relocator", relocator.InterfaceType(), func(c *recorder) []route {
		r := relocator.NewRemote(c)
		return []route{
			{"Register", "update", func() error { return r.Register(ref) }},
			{"Lookup", "read", func() error { _, err := r.Lookup(ref.ID); return err }},
			{"Move", "update", func() error { _, err := r.Move(ref.ID, "sim://b"); return err }},
			{"Remove", "update", quiet(func() { r.Remove(ref.ID) })},
			{"Snapshot", "read", func() error { _, err := r.Snapshot(); return err }},
		}
	}},
	{"trader", trader.InterfaceType(), func(c *recorder) []route {
		r := trader.NewRemote(c)
		return []route{
			{"Export", "update", func() error { _, err := r.Export("BankTeller", ref, values.Null()); return err }},
			{"Withdraw", "update", func() error { return r.Withdraw("T/1") }},
			{"Install", "update", func() error {
				return r.Install(trader.Offer{ID: "T/1", ServiceType: "BankTeller", Ref: ref})
			}},
			{"Import", "read", func() error { _, err := r.Import(trader.ImportRequest{ServiceType: "BankTeller"}); return err }},
		}
	}},
	{"typerepo", typerepo.InterfaceType(), func(c *recorder) []route {
		r := typerepo.NewRemote(c)
		return []route{
			{"RegisterInterface", "update", func() error { return r.RegisterInterface(types.OpInterface("A")) }},
			{"RegisterData", "update", func() error { return r.RegisterData("Money", values.TInt()) }},
			{"DeclareSubtype", "update", func() error { return r.DeclareSubtype("A", "B") }},
			{"Relate", "update", func() error { return r.Relate("uses", "A", "B") }},
			{"LookupInterface", "read", func() error { _, err := r.LookupInterface("A"); return err }},
			{"LookupData", "read", func() error { _, err := r.LookupData("Money"); return err }},
			{"IsSubtype", "read", func() error { _, err := r.IsSubtype("A", "B"); return err }},
			{"Supertypes", "read", func() error { _, err := r.Supertypes("A"); return err }},
			{"Subtypes", "read", func() error { _, err := r.Subtypes("A"); return err }},
			{"Interfaces", "read", quiet(func() { r.Interfaces() })},
			{"DeclaredSupertypes", "read", quiet(func() { r.DeclaredSupertypes("A") })},
			{"Related", "read", quiet(func() { r.Related("uses", "A") })},
			{"Gen", "read", quiet(func() { r.Gen() })},
		}
	}},
}

// TestRemoteCallsCarryADeadline: every operation of each service's proxy
// reaches its carrier by its route — a read through InvokeRead, an update
// through Invoke — under the 30 s call deadline, and a call that waits its
// deadline out returns an error wrapping context.DeadlineExceeded.
func TestRemoteCallsCarryADeadline(t *testing.T) {
	for _, svc := range services {
		t.Run(svc.name, func(t *testing.T) {
			c := &recorder{calls: map[string]call{}}
			table := svc.table(c)
			if len(table) != len(svc.it.Operations) {
				t.Errorf("the table routes %d operations, the interface type declares %d", len(table), len(svc.it.Operations))
			}
			for _, row := range table {
				if _, ok := svc.it.Operation(row.op); !ok {
					t.Errorf("%s: not an operation of %s", row.op, svc.it.Name)
				}
				if err := row.do(); !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("%s against a carrier that never answers = %v, want context.DeadlineExceeded", row.op, err)
				}
				got, ok := c.calls[row.op]
				if !ok || got.route != row.route {
					t.Errorf("%s reached the carrier by %q (called: %v), want %q", row.op, got.route, ok, row.route)
				}
				if got.left > 30*time.Second || got.left < 29*time.Second {
					t.Errorf("%s reached the carrier with deadline %v away, want 30s", row.op, got.left)
				}
			}
		})
	}
}

// TestRemoteCloseReleasesCarrier: closing a proxy closes its carrier and
// reports the carrier's answer.
func TestRemoteCloseReleasesCarrier(t *testing.T) {
	for name, closeOver := range map[string]func(c *recorder) error{
		"relocator": func(c *recorder) error { return relocator.NewRemote(c).Close() },
		"trader":    func(c *recorder) error { return trader.NewRemote(c).Close() },
		"typerepo":  func(c *recorder) error { return typerepo.NewRemote(c).Close() },
	} {
		c := &recorder{}
		if err := closeOver(c); err == nil || err.Error() != "closed" || c.closed != 1 {
			t.Errorf("%s: Close() = %v after %d carrier closes", name, err, c.closed)
		}
	}
}

// reply is a carrier that answers every call with one termination.
type reply struct {
	term string
	res  []values.Value
}

func (r reply) Invoke(context.Context, string, []values.Value) (string, []values.Value, error) {
	return r.term, r.res, nil
}

func (reply) Close() error { return nil }

// TestClientDecodesReplies: a failure termination of the table comes back
// as an error wrapping its sentinel with the servant's text; anything else
// — Error, an undeclared termination, an OK with the wrong number of
// results — as "<service>: remote <op> failed: <reason>", never a panic.
func TestClientDecodesReplies(t *testing.T) {
	errGone := errors.New("svc: gone")
	failures := stub.Failures{{Term: "Gone", Err: errGone}}
	contract := &stub.Contract{Service: "svc", Failures: failures, Type: types.OpInterface("Svc",
		failures.Op("Get", types.Params(), types.Term("OK", types.P("v", values.TInt()))))}
	str := func(s string) []values.Value { return []values.Value{values.Str(s)} }
	for _, tc := range []struct {
		reply reply
		is    error
		text  string
	}{
		{reply{"OK", []values.Value{values.Int(7)}}, nil, ""},
		{reply{"Gone", str("svc: gone: key 7")}, errGone, "svc: gone: key 7"},
		{reply{"Gone", nil}, errGone, "svc: gone"},
		{reply{"Error", str("disk full")}, nil, "svc: remote Get failed: disk full"},
		{reply{"Odd", nil}, nil, "svc: remote Get failed: unknown"},
		{reply{"OK", nil}, nil, "svc: remote Get failed: unknown"},
	} {
		res, err := contract.Client(tc.reply).Update("Get")
		switch {
		case tc.text == "":
			if err != nil || len(res) != 1 {
				t.Errorf("%v: %v, %v", tc.reply, res, err)
			}
		case err == nil || err.Error() != tc.text || (tc.is != nil && !errors.Is(err, tc.is)):
			t.Errorf("%v: error %v, want %q wrapping %v", tc.reply, err, tc.text, tc.is)
		}
	}
	// The server half answers an error with its sentinel's termination.
	if term, res, err := contract.Reply(fmt.Errorf("%w: key 7", errGone)); term != "Gone" || len(res) != 1 || err != nil {
		t.Errorf("Reply(gone) = %q, %v, %v", term, res, err)
	}
	if term, _, _ := contract.Reply(errors.New("disk full")); term != "Error" {
		t.Errorf("Reply(other) = %q, want Error", term)
	}
}
