package relocator

// Like the trader, the relocator is an ODP infrastructure object: nodes in
// other capsules (or other processes) reach it through an ordinary
// operational interface. Servant adapts a Store to channel.Handler;
// Remote is the one client proxy, satisfying both channel.Locator (for
// binders) and engineering.LocationRegistry (for nodes), so a whole node
// can be pointed at a relocator living elsewhere — behind one binding or
// behind a replica group, which the proxy cannot tell apart.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/channel"
	"repro/internal/naming"
	"repro/internal/types"
	"repro/internal/values"
)

// InterfaceType returns the relocator's operational interface type.
func InterfaceType() *types.Interface {
	return types.OpInterface("odp.Relocator",
		types.Op("Register",
			types.Params(types.P("ref", naming.RefDataType())),
			types.Term("OK"),
			// Stale carries the epoch the relocator currently holds, so a
			// remote caller recovers a structured *StaleError — not just a
			// stringified reason — and can fence its own state with it.
			types.Term("Stale",
				types.P("current_epoch", values.TInt()),
				types.P("refused_epoch", values.TInt()),
			),
			types.Term("Error", types.P("reason", values.TString())),
		),
		types.Op("Lookup",
			types.Params(types.P("id", values.TString())),
			types.Term("OK", types.P("ref", naming.RefDataType())),
			types.Term("Unknown"),
			types.Term("Error", types.P("reason", values.TString())),
		),
		types.Op("Move",
			types.Params(
				types.P("id", values.TString()),
				types.P("to", values.TString()),
			),
			types.Term("OK", types.P("ref", naming.RefDataType())),
			types.Term("Unknown"),
			types.Term("Error", types.P("reason", values.TString())),
		),
		// Remove is an interrogation, not an announcement: it travels
		// through Invoke on every carrier, and a lost one is an error the
		// caller's retry policy sees instead of a dangling registration.
		types.Op("Remove",
			types.Params(types.P("id", values.TString())),
			types.Term("OK"),
			types.Term("Error", types.P("reason", values.TString())),
		),
		// Snapshot enumerates every registration — the capability live
		// shard migration needs to drain a relocator shard.
		types.Op("Snapshot",
			types.Params(),
			types.Term("OK", types.P("refs", values.TSeq(naming.RefDataType()))),
			types.Term("Error", types.P("reason", values.TString())),
		),
	)
}

// Servant adapts any location Store (a local *Relocator, a *Remote, a
// Sharded front-end) to channel.Handler, so each can be hosted as an
// ordinary ODP object or joined to a replica group.
type Servant struct {
	R Store
}

var _ channel.Handler = (*Servant)(nil)

// arity is each operation's argument count. The servant checks it itself:
// registered untyped, or joined to a group in process, it has no stub in
// front of it to do so.
var arity = map[string]int{"Register": 1, "Lookup": 1, "Move": 2, "Remove": 1, "Snapshot": 0}

// Invoke implements channel.Handler.
func (s *Servant) Invoke(_ context.Context, op string, args []values.Value) (string, []values.Value, error) {
	fail := func(err error) (string, []values.Value, error) {
		return "Error", []values.Value{values.Str(err.Error())}, nil
	}
	if n, ok := arity[op]; ok && len(args) != n {
		return fail(fmt.Errorf("relocator: %s takes %d arguments, got %d", op, n, len(args)))
	}
	switch op {
	case "Register":
		ref, err := naming.RefFromValue(args[0])
		if err != nil {
			return fail(err)
		}
		if err := s.R.Register(ref); err != nil {
			var stale *StaleError
			if errors.As(err, &stale) {
				return "Stale", []values.Value{
					values.Int(int64(stale.Current)),
					values.Int(int64(stale.Refused)),
				}, nil
			}
			return fail(err)
		}
		return "OK", nil, nil
	case "Lookup":
		idStr, _ := args[0].AsString()
		id, err := naming.ParseInterfaceID(idStr)
		if err != nil {
			return fail(err)
		}
		ref, err := s.R.Lookup(id)
		if err != nil {
			return "Unknown", nil, nil
		}
		return "OK", []values.Value{ref.ToValue()}, nil
	case "Move":
		idStr, _ := args[0].AsString()
		to, _ := args[1].AsString()
		id, err := naming.ParseInterfaceID(idStr)
		if err != nil {
			return fail(err)
		}
		ref, err := s.R.Move(id, naming.Endpoint(to))
		if err != nil {
			return "Unknown", nil, nil
		}
		return "OK", []values.Value{ref.ToValue()}, nil
	case "Remove":
		idStr, _ := args[0].AsString()
		id, err := naming.ParseInterfaceID(idStr)
		if err != nil {
			return fail(err)
		}
		s.R.Remove(id)
		return "OK", nil, nil
	case "Snapshot":
		en, ok := s.R.(Enumerable)
		if !ok {
			return fail(fmt.Errorf("relocator: store cannot enumerate"))
		}
		refs, err := en.Snapshot()
		if err != nil {
			return fail(err)
		}
		out := make([]values.Value, len(refs))
		for i, ref := range refs {
			out[i] = ref.ToValue()
		}
		return "OK", []values.Value{values.Seq(out...)}, nil
	}
	return "", nil, fmt.Errorf("relocator: no operation %q", op)
}

// carrier is whatever carries the proxy's calls to the relocator: a
// *channel.Binding to the one node hosting it, or a
// *coordination.ReplicaGroup or *coordination.FailoverGroup of such
// bindings (or of in-process members). The channel decides how a call is
// carried; the proxy never knows.
type carrier interface {
	Invoke(ctx context.Context, op string, args []values.Value) (string, []values.Value, error)
	Close() error
}

// Remote is the client proxy to a relocator hosted elsewhere. It
// satisfies channel.Locator and engineering.LocationRegistry, so both
// binders and whole nodes can use it, and Store and Enumerable, so it is
// a shard of a Sharded front-end like a local *Relocator.
type Remote struct {
	c carrier
	// read carries the operations that change nothing (Lookup, Snapshot):
	// the carrier's InvokeRead when it has one — a replica group answers
	// those from a single member instead of sequencing them through all —
	// and its Invoke otherwise.
	read func(ctx context.Context, op string, args []values.Value) (string, []values.Value, error)
}

// NewRemote returns a proxy whose calls travel over c.
func NewRemote(c carrier) *Remote {
	r := &Remote{c: c, read: c.Invoke}
	if rd, ok := c.(interface {
		InvokeRead(ctx context.Context, op string, args []values.Value) (string, []values.Value, error)
	}); ok {
		r.read = rd.InvokeRead
	}
	return r
}

// Close releases the carrier.
func (r *Remote) Close() error { return r.c.Close() }

// callTimeout bounds every cross-process wait of the proxy (netchan's rule
// 1: use timeouts): its operations' signatures carry no context, and a
// partitioned relocator host must not block them for ever. 30s is what
// odpnode -call, odpstat and odptrader's link contract allow a call.
const callTimeout = 30 * time.Second

// call carries one operation over invoke under callTimeout.
func call(invoke func(context.Context, string, []values.Value) (string, []values.Value, error), op string, args []values.Value) (string, []values.Value, error) {
	ctx, cancel := context.WithTimeout(context.TODO(), callTimeout)
	defer cancel()
	return invoke(ctx, op, args)
}

// Register records an interface location. A stale registration surfaces
// as a *StaleError carrying both epochs, exactly as it would from a local
// relocator.
func (r *Remote) Register(ref naming.InterfaceRef) error {
	term, res, err := call(r.c.Invoke, "Register", []values.Value{ref.ToValue()})
	if err != nil {
		return err
	}
	switch term {
	case "OK":
		return nil
	case "Stale":
		se := &StaleError{ID: ref.ID, Refused: ref.Epoch}
		if len(res) == 2 {
			if cur, ok := res[0].AsInt(); ok {
				se.Current = uint64(cur)
			}
			if got, ok := res[1].AsInt(); ok {
				se.Refused = uint64(got)
			}
		}
		return se
	}
	return remoteFailure("Register", res)
}

// Lookup resolves an interface's current location.
func (r *Remote) Lookup(id naming.InterfaceID) (naming.InterfaceRef, error) {
	term, res, err := call(r.read, "Lookup", []values.Value{values.Str(id.String())})
	return refReply("Lookup", id, term, res, err)
}

// Move relocates an interface.
func (r *Remote) Move(id naming.InterfaceID, to naming.Endpoint) (naming.InterfaceRef, error) {
	term, res, err := call(r.c.Invoke, "Move", []values.Value{
		values.Str(id.String()), values.Str(string(to)),
	})
	return refReply("Move", id, term, res, err)
}

// refReply decodes the reply Lookup and Move share: the interface's
// reference, or Unknown rehydrated as ErrUnknown.
func refReply(op string, id naming.InterfaceID, term string, res []values.Value, err error) (naming.InterfaceRef, error) {
	switch {
	case err != nil:
		return naming.InterfaceRef{}, err
	case term == "OK" && len(res) == 1:
		return naming.RefFromValue(res[0])
	case term == "Unknown":
		return naming.InterfaceRef{}, fmt.Errorf("%w: %s", ErrUnknown, id)
	}
	return naming.InterfaceRef{}, remoteFailure(op, res)
}

// Remove deletes an interface's registration. The Store signature has no
// error to return, so a failed call is dropped here — after the carrier's
// own retry policy or fail-over has had its chance at it.
func (r *Remote) Remove(id naming.InterfaceID) {
	_, _, _ = call(r.c.Invoke, "Remove", []values.Value{values.Str(id.String())})
}

// Snapshot enumerates the relocator's registrations.
func (r *Remote) Snapshot() ([]naming.InterfaceRef, error) {
	term, res, err := call(r.read, "Snapshot", nil)
	if err != nil {
		return nil, err
	}
	if term != "OK" || len(res) != 1 {
		return nil, remoteFailure("Snapshot", res)
	}
	seq := res[0]
	out := make([]naming.InterfaceRef, 0, seq.Len())
	for i := 0; i < seq.Len(); i++ {
		ref, err := naming.RefFromValue(seq.ElemAt(i))
		if err != nil {
			return nil, err
		}
		out = append(out, ref)
	}
	return out, nil
}

func remoteFailure(op string, res []values.Value) error {
	reason := "unknown"
	if len(res) == 1 {
		if s, ok := res[0].AsString(); ok {
			reason = s
		}
	}
	return fmt.Errorf("relocator: remote %s failed: %s", op, reason)
}
