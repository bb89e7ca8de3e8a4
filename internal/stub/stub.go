// Package stub is the one wire contract of the ODP infrastructure objects
// — the trader, the relocator and the type repository — which clients
// reach through stubs like any other object (Section 5, Fig 4). A service
// declares its Contract once: its interface type and its failure table,
// the terminations a call may end in besides OK, each carrying a sentinel
// error. The client half (Client) carries a proxy's calls and decodes the
// replies; the server half (Admit, Reply) checks a call and answers it. So
// a sentinel crosses a binding or a replica group as itself: errors.Is
// holds at the caller, and the text is the servant's own.
//
// It imports only the standard library, types and values, so the type
// repository stays a leaf package.
package stub

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/types"
	"repro/internal/values"
)

// Carrier is whatever carries a proxy's calls to its service: a
// *channel.Binding to the one node hosting it, or a
// *coordination.ReplicaGroup or *coordination.FailoverGroup of such
// bindings (or of in-process members). The channel decides how a call is
// carried; the proxy never knows.
type Carrier interface {
	Invoke(ctx context.Context, op string, args []values.Value) (string, []values.Value, error)
	Close() error
}

// Failure is one row of a failure table: a termination and the sentinel
// error it carries across the wire.
type Failure struct {
	Term string
	Err  error
}

// Failures is a service's failure table. Error, the termination for every
// other failure, follows the table in each operation.
type Failures []Failure

// reason is the one result of every failure termination.
var reason = types.P("reason", values.TString())

// Op declares an operation of the service: its own terminations (OK
// first), then one per row of the table and Error, each carrying its
// failure's message — so the interface type and the table cannot drift.
func (f Failures) Op(name string, params []types.Parameter, terms ...types.Termination) types.Operation {
	for _, x := range f {
		terms = append(terms, types.Term(x.Term, reason))
	}
	return types.Op(name, params, append(terms, types.Term("Error", reason))...)
}

// Contract is one service's wire contract.
type Contract struct {
	Service  string           // names the service in the errors the contract makes
	Type     *types.Interface // its operations built with Failures.Op
	Failures Failures
}

// errUndeclared marks a call to an operation the type does not declare.
var errUndeclared = errors.New("no operation")

// Admit checks a call before a servant runs it; a servant registered in
// process, or joined to a group, has no stub in front of it to do so. An
// operation the type does not declare, and a wrong argument count, are
// refused; Reply answers the refusal.
func (c *Contract) Admit(op string, args []values.Value) error {
	o, ok := c.Type.Operation(op)
	if !ok {
		return fmt.Errorf("%s: %w %q", c.Service, errUndeclared, op)
	}
	if len(args) != len(o.Params) {
		return fmt.Errorf("%s: %s takes %d arguments, got %d", c.Service, op, len(o.Params), len(args))
	}
	return nil
}

// Reply is a servant's answer: OK with results when err is nil, and
// otherwise the termination of the first row whose sentinel err matches
// under errors.Is, or Error, carrying err's text. An undeclared operation
// is answered with err itself, as a channel server answers one.
func (c *Contract) Reply(err error, results ...values.Value) (string, []values.Value, error) {
	switch {
	case err == nil:
		return "OK", results, nil
	case errors.Is(err, errUndeclared):
		return "", nil, err
	}
	res := []values.Value{values.Str(err.Error())}
	for _, f := range c.Failures {
		if errors.Is(err, f.Err) {
			return f.Term, res, nil
		}
	}
	return "Error", res, nil
}

// callTimeout bounds every cross-process wait of a proxy (netchan's rule
// 1: use timeouts): the services' signatures carry no context, and a
// partitioned host must not block them for ever. 30s is what odpnode
// -call, odpstat and odptrader's link contract allow a call.
const callTimeout = 30 * time.Second

type invokeFunc func(ctx context.Context, op string, args []values.Value) (string, []values.Value, error)

// Client is the proxy half of a contract over one carrier.
type Client struct {
	contract *Contract
	c        Carrier
	read     invokeFunc
}

// Client returns the proxy half of the contract over carrier.
func (c *Contract) Client(carrier Carrier) Client {
	cl := Client{contract: c, c: carrier, read: carrier.Invoke}
	if rd, ok := carrier.(interface {
		InvokeRead(ctx context.Context, op string, args []values.Value) (string, []values.Value, error)
	}); ok {
		cl.read = rd.InvokeRead
	}
	return cl
}

// Close releases the carrier.
func (c Client) Close() error { return c.c.Close() }

// Update carries an operation that changes the service's state through
// the carrier's Invoke, which a replica group sequences through every
// member, and returns the OK termination's results.
func (c Client) Update(op string, args ...values.Value) ([]values.Value, error) {
	return c.call(c.c.Invoke, op, args)
}

// Read carries an operation that changes nothing through the carrier's
// InvokeRead when it has one — a replica group answers it from a single
// member — and its Invoke otherwise.
func (c Client) Read(op string, args ...values.Value) ([]values.Value, error) {
	return c.call(c.read, op, args)
}

func (c Client) call(invoke invokeFunc, op string, args []values.Value) ([]values.Value, error) {
	ctx, cancel := context.WithTimeout(context.TODO(), callTimeout)
	defer cancel()
	term, res, err := invoke(ctx, op, args)
	if err != nil {
		return nil, err
	}
	return c.contract.decode(op, term, res)
}

// decode turns a reply into the OK termination's results, checked against
// the declared count, or into the error it reports.
func (c *Contract) decode(op, term string, res []values.Value) ([]values.Value, error) {
	o, _ := c.Type.Operation(op)
	if t, _ := o.Termination(term); term == "OK" && len(res) == len(t.Results) {
		return res, nil
	}
	var reason string
	if len(res) == 1 {
		reason, _ = res[0].AsString()
	}
	for _, f := range c.Failures {
		if f.Term == term {
			if reason == "" {
				reason = f.Err.Error()
			}
			return nil, &Failed{Term: term, Results: res, msg: reason, sentinel: f.Err}
		}
	}
	if reason == "" {
		reason = "unknown"
	}
	return nil, &Failed{Term: term, Results: res, msg: fmt.Sprintf("%s: remote %s failed: %s", c.Service, op, reason)}
}

// Failed is a reply other than a well-formed OK. A failure termination of
// the table reads as the servant's message and wraps the service's
// sentinel; anything else — Error, an OK with the wrong number of results,
// a termination of the service's own such as the relocator's Stale, whose
// results its proxy reads — reads "<service>: remote <op> failed: <reason>".
type Failed struct {
	Term     string
	Results  []values.Value
	msg      string
	sentinel error
}

func (e *Failed) Error() string { return e.msg }
func (e *Failed) Unwrap() error { return e.sentinel }

// Seq encodes xs as a sequence, each element by enc.
func Seq[T any](xs []T, enc func(T) values.Value) values.Value {
	out := make([]values.Value, len(xs))
	for i, x := range xs {
		out[i] = enc(x)
	}
	return values.SeqOwned(out)
}

// Elems decodes a sequence Seq encoded, each element by dec.
func Elems[T any](v values.Value, dec func(values.Value) (T, error)) ([]T, error) {
	out := make([]T, v.Len())
	for i := range out {
		var err error
		if out[i], err = dec(v.ElemAt(i)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Any wraps v as a value of type any: how a contract carries a value whose
// data type its interface type leaves open (offer properties, an encoded
// type).
func Any(v values.Value) values.Value { return values.Any(values.TypeOf(v), v) }

// Bare unwraps a value Any wrapped, and returns any other value as it is.
func Bare(v values.Value) values.Value {
	if _, inner, ok := v.AsAny(); ok {
		return inner
	}
	return v
}
