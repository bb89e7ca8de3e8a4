package trader

// The trader is itself an ODP infrastructure object ("Objects in a
// computational specification can be application objects or ODP
// infrastructure objects (e.g. a type repository or a trader)" —
// Section 5). This file provides both halves of that: Servant adapts a
// Shard to channel.Handler so it can be offered as an interface of an
// engineering object or joined to a replica group, and Remote is the one
// client proxy, itself a Shard, so federation links and shards can span
// nodes — behind one binding or behind a replica group, which the proxy
// cannot tell apart.

import (
	"context"
	"fmt"

	"repro/internal/channel"
	"repro/internal/naming"
	"repro/internal/stub"
	"repro/internal/types"
	"repro/internal/values"
)

// failures is the trader's failure table: each sentinel crosses the wire
// as itself. The sharded front-end's withdraw fallback and its migration
// branch on NoSuchOffer.
var failures = stub.Failures{
	{Term: "NoSuchOffer", Err: ErrNoSuchOffer},
	{Term: "NoShards", Err: ErrNoShards},
	{Term: "TypeUnknown", Err: ErrTypeUnknown},
	{Term: "TypeMismatch", Err: ErrTypeMismatch},
	{Term: "BadRequest", Err: ErrBadRequest},
	{Term: "BadProps", Err: ErrBadProps},
}

var contract = stub.Contract{Service: "trader", Type: InterfaceType(), Failures: failures}

// InterfaceType returns the trader's operational interface type.
func InterfaceType() *types.Interface {
	return types.OpInterface("odp.Trader",
		failures.Op("Export",
			types.Params(
				types.P("service_type", values.TString()),
				types.P("ref", naming.RefDataType()),
				types.P("properties", values.TAny()),
			),
			types.Term("OK", types.P("offer_id", values.TString())),
		),
		failures.Op("Withdraw", types.Params(types.P("offer_id", values.TString())), types.Term("OK")),
		// Install re-homes an existing offer under its original id — the
		// shard-rebalance primitive (Export would mint a fresh id).
		failures.Op("Install", types.Params(types.P("offer", values.TAny())), types.Term("OK")),
		failures.Op("Import",
			types.Params(
				types.P("service_type", values.TString()),
				types.P("constraint", values.TString()),
				types.P("pref_kind", values.TInt()),
				types.P("pref_expr", values.TString()),
				types.P("max_matches", values.TInt()),
				types.P("max_hops", values.TInt()),
			),
			types.Term("OK", types.P("offers", values.TSeq(values.TAny()))),
		),
	)
}

// offerToValue encodes an offer for transmission.
func offerToValue(o Offer) values.Value {
	rec := values.Record(
		values.F("id", values.Str(o.ID)),
		values.F("service_type", values.Str(o.ServiceType)),
		values.F("ref", o.Ref.ToValue()),
		values.F("properties", stub.Any(o.Properties)),
	)
	return stub.Any(rec)
}

// offerFromValue decodes an offer encoded by offerToValue.
func offerFromValue(v values.Value) (Offer, error) {
	v = stub.Bare(v)
	id, okID := v.FieldByName("id")
	st, okST := v.FieldByName("service_type")
	refV, okRef := v.FieldByName("ref")
	if !okID || !okST || !okRef {
		return Offer{}, fmt.Errorf("%w: offer needs an id, a service_type and a ref", ErrBadRequest)
	}
	ref, err := naming.RefFromValue(refV)
	if err != nil {
		return Offer{}, err
	}
	o := Offer{Ref: ref}
	o.ID, _ = id.AsString()
	o.ServiceType, _ = st.AsString()
	if p, ok := v.FieldByName("properties"); ok {
		o.Properties = stub.Bare(p)
	}
	return o, nil
}

// Servant adapts a trading function — a Trader, or any other Shard such
// as a sharded front-end — to channel.Handler so it can be registered as
// an interface of an engineering object.
type Servant struct {
	T Shard
}

var _ channel.Handler = (*Servant)(nil)

// Invoke implements channel.Handler.
func (s *Servant) Invoke(_ context.Context, op string, args []values.Value) (string, []values.Value, error) {
	if err := contract.Admit(op, args); err != nil {
		return contract.Reply(err)
	}
	switch op {
	case "Export":
		st, _ := args[0].AsString()
		ref, err := naming.RefFromValue(args[1])
		if err != nil {
			return contract.Reply(err)
		}
		id, err := s.T.Export(st, ref, stub.Bare(args[2]))
		return contract.Reply(err, values.Str(id))
	case "Withdraw":
		id, _ := args[0].AsString()
		return contract.Reply(s.T.Withdraw(id))
	case "Install":
		o, err := offerFromValue(args[0])
		if err != nil {
			return contract.Reply(err)
		}
		return contract.Reply(s.T.Install(o))
	case "Import":
		st, _ := args[0].AsString()
		constraint, _ := args[1].AsString()
		prefKind, _ := args[2].AsInt()
		prefExpr, _ := args[3].AsString()
		maxMatches, _ := args[4].AsInt()
		maxHops, _ := args[5].AsInt()
		offers, err := s.T.Import(ImportRequest{
			ServiceType: st,
			Constraint:  constraint,
			Preference:  Preference{Kind: PreferenceKind(prefKind), Expr: prefExpr},
			MaxMatches:  int(maxMatches),
			MaxHops:     int(maxHops),
		})
		return contract.Reply(err, stub.Seq(offers, offerToValue))
	}
	return "", nil, fmt.Errorf("trader: no operation %q", op)
}

// Remote is the client proxy to a trader hosted elsewhere. It satisfies
// Shard (and so Importer): it can be a federation link target or a shard
// of a ShardedTrader like a local *Trader.
//
// Behind a replica group every member must mint the same offer id for
// the same sequenced Export, or the group reports divergence. Ids come
// from the trader's name and a per-trader counter, so members built with
// New(<one name>, repo) satisfy that; the group's total order does the
// rest.
type Remote struct {
	c stub.Client
}

// NewRemote returns a proxy whose calls travel over c.
func NewRemote(c stub.Carrier) *Remote { return &Remote{c: contract.Client(c)} }

// Close releases the carrier.
func (r *Remote) Close() error { return r.c.Close() }

// Export advertises a service and returns the offer id the trader (or
// every replica of it) minted.
func (r *Remote) Export(serviceType string, ref naming.InterfaceRef, props values.Value) (string, error) {
	res, err := r.c.Update("Export", values.Str(serviceType), ref.ToValue(), stub.Any(props))
	if err != nil {
		return "", err
	}
	id, _ := res[0].AsString()
	return id, nil
}

// Withdraw removes an offer; an id the trader does not hold is
// ErrNoSuchOffer, as from a local trader.
func (r *Remote) Withdraw(offerID string) error {
	_, err := r.c.Update("Withdraw", values.Str(offerID))
	return err
}

// Install re-homes an offer, identity preserved — the rebalance path, so
// a shard migrating onto a replica group lands replicated.
func (r *Remote) Install(o Offer) error {
	_, err := r.c.Update("Install", offerToValue(o))
	return err
}

// Import queries the trader.
func (r *Remote) Import(req ImportRequest) ([]Offer, error) {
	res, err := r.c.Read("Import",
		values.Str(req.ServiceType),
		values.Str(req.Constraint),
		values.Int(int64(req.Preference.Kind)),
		values.Str(req.Preference.Expr),
		values.Int(int64(req.MaxMatches)),
		values.Int(int64(req.MaxHops)),
	)
	if err != nil {
		return nil, err
	}
	return stub.Elems(res[0], offerFromValue)
}
