package relocator

// Like the trader, the relocator is an ODP infrastructure object: nodes in
// other capsules (or other processes) reach it through an ordinary
// operational interface, served by Servant and called through Remote —
// behind one binding or behind a replica group, which the proxy cannot
// tell apart.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/channel"
	"repro/internal/naming"
	"repro/internal/stub"
	"repro/internal/types"
	"repro/internal/values"
)

// failures is the relocator's failure table: each sentinel crosses the
// wire as itself. A sharded front-end's drain takes Unknown from a donor
// to mean a client removed the entry, so a store that is failing —
// NoShards, or a nested proxy's transport error — must not answer Unknown.
var failures = stub.Failures{
	{Term: "Unknown", Err: ErrUnknown},
	{Term: "NoShards", Err: ErrNoShards},
}

var contract = stub.Contract{Service: "relocator", Type: InterfaceType(), Failures: failures}

// InterfaceType returns the relocator's operational interface type.
func InterfaceType() *types.Interface {
	id := types.P("id", values.TString())
	ref := types.Term("OK", types.P("ref", naming.RefDataType()))
	return types.OpInterface("odp.Relocator",
		failures.Op("Register",
			types.Params(types.P("ref", naming.RefDataType())),
			types.Term("OK"),
			// Stale carries the epoch the relocator currently holds, so a
			// remote caller recovers a structured *StaleError — not just a
			// stringified reason — and can fence its own state with it.
			types.Term("Stale",
				types.P("current_epoch", values.TInt()),
				types.P("refused_epoch", values.TInt()),
			),
		),
		failures.Op("Lookup", types.Params(id), ref),
		failures.Op("Move", types.Params(id, types.P("to", values.TString())), ref),
		// Remove is an interrogation, not an announcement: it travels
		// through Invoke on every carrier, and a lost one is an error the
		// caller's retry policy sees instead of a dangling registration.
		failures.Op("Remove", types.Params(id), types.Term("OK")),
		// Snapshot enumerates every registration — the capability live
		// shard migration needs to drain a relocator shard.
		failures.Op("Snapshot", types.Params(),
			types.Term("OK", types.P("refs", values.TSeq(naming.RefDataType())))),
	)
}

// Servant adapts any location Store (a local *Relocator, a *Remote, a
// Sharded front-end) to channel.Handler, so each can be hosted as an
// ordinary ODP object or joined to a replica group.
type Servant struct {
	R Store
}

var _ channel.Handler = (*Servant)(nil)

// Invoke implements channel.Handler.
func (s *Servant) Invoke(_ context.Context, op string, args []values.Value) (string, []values.Value, error) {
	if err := contract.Admit(op, args); err != nil {
		return contract.Reply(err)
	}
	switch op {
	case "Register":
		ref, err := naming.RefFromValue(args[0])
		if err == nil {
			err = s.R.Register(ref)
		}
		var stale *StaleError
		if errors.As(err, &stale) {
			return "Stale", []values.Value{values.Int(int64(stale.Current)), values.Int(int64(stale.Refused))}, nil
		}
		return contract.Reply(err)
	case "Lookup":
		id, err := idFromValue(args[0])
		if err != nil {
			return contract.Reply(err)
		}
		ref, err := s.R.Lookup(id)
		return contract.Reply(err, ref.ToValue())
	case "Move":
		id, err := idFromValue(args[0])
		if err != nil {
			return contract.Reply(err)
		}
		to, _ := args[1].AsString()
		ref, err := s.R.Move(id, naming.Endpoint(to))
		return contract.Reply(err, ref.ToValue())
	case "Remove":
		id, err := idFromValue(args[0])
		if err == nil {
			s.R.Remove(id)
		}
		return contract.Reply(err)
	case "Snapshot":
		en, ok := s.R.(Enumerable)
		if !ok {
			return contract.Reply(fmt.Errorf("relocator: store cannot enumerate"))
		}
		refs, err := en.Snapshot()
		return contract.Reply(err, stub.Seq(refs, naming.InterfaceRef.ToValue))
	}
	return "", nil, fmt.Errorf("relocator: no operation %q", op)
}

// idFromValue decodes the interface id Lookup, Move and Remove name.
func idFromValue(v values.Value) (naming.InterfaceID, error) {
	s, _ := v.AsString()
	return naming.ParseInterfaceID(s)
}

// Remote is the client proxy to a relocator hosted elsewhere. It
// satisfies channel.Locator and engineering.LocationRegistry, so both
// binders and whole nodes can use it, and Store and Enumerable, so it is
// a shard of a Sharded front-end like a local *Relocator.
type Remote struct {
	c stub.Client
}

// NewRemote returns a proxy whose calls travel over c.
func NewRemote(c stub.Carrier) *Remote { return &Remote{c: contract.Client(c)} }

// Close releases the carrier.
func (r *Remote) Close() error { return r.c.Close() }

// Register records an interface location. A stale registration surfaces
// as a *StaleError carrying both epochs, exactly as it would from a local
// relocator.
func (r *Remote) Register(ref naming.InterfaceRef) error {
	_, err := r.c.Update("Register", ref.ToValue())
	var f *stub.Failed
	if errors.As(err, &f) && f.Term == "Stale" && len(f.Results) == 2 {
		current, _ := f.Results[0].AsInt()
		refused, _ := f.Results[1].AsInt()
		return &StaleError{ID: ref.ID, Current: uint64(current), Refused: uint64(refused)}
	}
	return err
}

// Lookup resolves an interface's current location.
func (r *Remote) Lookup(id naming.InterfaceID) (naming.InterfaceRef, error) {
	return refReply(r.c.Read("Lookup", values.Str(id.String())))
}

// Move relocates an interface.
func (r *Remote) Move(id naming.InterfaceID, to naming.Endpoint) (naming.InterfaceRef, error) {
	return refReply(r.c.Update("Move", values.Str(id.String()), values.Str(string(to))))
}

// refReply decodes the reference Lookup and Move answer with.
func refReply(res []values.Value, err error) (naming.InterfaceRef, error) {
	if err != nil {
		return naming.InterfaceRef{}, err
	}
	return naming.RefFromValue(res[0])
}

// Remove deletes an interface's registration. The Store signature has no
// error to return, so a failed call is dropped here — after the carrier's
// own retry policy or fail-over has had its chance at it.
func (r *Remote) Remove(id naming.InterfaceID) {
	_, _ = r.c.Update("Remove", values.Str(id.String()))
}

// Snapshot enumerates the relocator's registrations.
func (r *Remote) Snapshot() ([]naming.InterfaceRef, error) {
	res, err := r.c.Read("Snapshot")
	if err != nil {
		return nil, err
	}
	return stub.Elems(res[0], naming.RefFromValue)
}
