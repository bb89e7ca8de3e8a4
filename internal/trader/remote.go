package trader

// The trader is itself an ODP infrastructure object ("Objects in a
// computational specification can be application objects or ODP
// infrastructure objects (e.g. a type repository or a trader)" —
// Section 5). This file provides both halves of that: Servant adapts a
// *Trader to channel.Handler so it can be offered as an interface of an
// engineering object, and Remote is the client proxy, itself an Importer,
// so federation links can span nodes.

import (
	"context"
	"fmt"

	"repro/internal/channel"
	"repro/internal/naming"
	"repro/internal/types"
	"repro/internal/values"
)

// InterfaceType returns the trader's operational interface type.
func InterfaceType() *types.Interface {
	return types.OpInterface("odp.Trader",
		types.Op("Export",
			types.Params(
				types.P("service_type", values.TString()),
				types.P("ref", naming.RefDataType()),
				types.P("properties", values.TAny()),
			),
			types.Term("OK", types.P("offer_id", values.TString())),
			types.Term("Error", types.P("reason", values.TString())),
		),
		types.Op("Withdraw",
			types.Params(types.P("offer_id", values.TString())),
			types.Term("OK"),
			types.Term("Error", types.P("reason", values.TString())),
		),
		// Install re-homes an existing offer under its original id — the
		// shard-rebalance primitive (Export would mint a fresh id).
		types.Op("Install",
			types.Params(types.P("offer", values.TAny())),
			types.Term("OK"),
			types.Term("Error", types.P("reason", values.TString())),
		),
		types.Op("Import",
			types.Params(
				types.P("service_type", values.TString()),
				types.P("constraint", values.TString()),
				types.P("pref_kind", values.TInt()),
				types.P("pref_expr", values.TString()),
				types.P("max_matches", values.TInt()),
				types.P("max_hops", values.TInt()),
			),
			types.Term("OK", types.P("offers", values.TSeq(values.TAny()))),
			types.Term("Error", types.P("reason", values.TString())),
		),
	)
}

// offerToValue encodes an offer for transmission.
func offerToValue(o Offer) values.Value {
	rec := values.Record(
		values.F("id", values.Str(o.ID)),
		values.F("service_type", values.Str(o.ServiceType)),
		values.F("ref", o.Ref.ToValue()),
		values.F("properties", values.Any(values.TypeOf(o.Properties), o.Properties)),
	)
	return values.Any(values.TypeOf(rec), rec)
}

// offerFromValue decodes an offer encoded by offerToValue.
func offerFromValue(v values.Value) (Offer, error) {
	if _, inner, ok := v.AsAny(); ok {
		v = inner
	}
	var o Offer
	idV, ok := v.FieldByName("id")
	if !ok {
		return o, fmt.Errorf("%w: offer missing id", ErrBadRequest)
	}
	o.ID, _ = idV.AsString()
	stV, ok := v.FieldByName("service_type")
	if !ok {
		return o, fmt.Errorf("%w: offer missing service_type", ErrBadRequest)
	}
	o.ServiceType, _ = stV.AsString()
	refV, ok := v.FieldByName("ref")
	if !ok {
		return o, fmt.Errorf("%w: offer missing ref", ErrBadRequest)
	}
	ref, err := naming.RefFromValue(refV)
	if err != nil {
		return o, err
	}
	o.Ref = ref
	if pV, ok := v.FieldByName("properties"); ok {
		if _, inner, isAny := pV.AsAny(); isAny {
			o.Properties = inner
		} else {
			o.Properties = pV
		}
	}
	return o, nil
}

// OfferToValue encodes an offer in the wire representation the trader
// servant speaks, for callers (such as a replica-group adapter) that
// invoke the servant vocabulary directly rather than over a binding.
func OfferToValue(o Offer) values.Value { return offerToValue(o) }

// OfferFromValue decodes an offer encoded by OfferToValue.
func OfferFromValue(v values.Value) (Offer, error) { return offerFromValue(v) }

// Servant adapts a trading function — a Trader, or any other Shard such
// as a sharded front-end — to channel.Handler so it can be registered as
// an interface of an engineering object.
type Servant struct {
	T Shard
}

var _ channel.Handler = (*Servant)(nil)

// Invoke implements channel.Handler.
func (s *Servant) Invoke(_ context.Context, op string, args []values.Value) (string, []values.Value, error) {
	fail := func(err error) (string, []values.Value, error) {
		return "Error", []values.Value{values.Str(err.Error())}, nil
	}
	switch op {
	case "Export":
		st, _ := args[0].AsString()
		ref, err := naming.RefFromValue(args[1])
		if err != nil {
			return fail(err)
		}
		props := args[2]
		if _, inner, ok := props.AsAny(); ok {
			props = inner
		}
		id, err := s.T.Export(st, ref, props)
		if err != nil {
			return fail(err)
		}
		return "OK", []values.Value{values.Str(id)}, nil
	case "Withdraw":
		id, _ := args[0].AsString()
		if err := s.T.Withdraw(id); err != nil {
			return fail(err)
		}
		return "OK", nil, nil
	case "Install":
		o, err := offerFromValue(args[0])
		if err != nil {
			return fail(err)
		}
		if err := s.T.Install(o); err != nil {
			return fail(err)
		}
		return "OK", nil, nil
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
		if err != nil {
			return fail(err)
		}
		out := make([]values.Value, len(offers))
		for i, o := range offers {
			out[i] = offerToValue(o)
		}
		return "OK", []values.Value{values.Seq(out...)}, nil
	}
	return "", nil, fmt.Errorf("trader: no operation %q", op)
}

// Remote is a client proxy to a trader reachable over a channel binding.
// It satisfies Importer, so it can serve as a federation link target.
type Remote struct {
	b *channel.Binding
}

var _ Importer = (*Remote)(nil)

// NewRemote wraps a binding to a trader interface.
func NewRemote(b *channel.Binding) *Remote { return &Remote{b: b} }

// Close releases the underlying binding.
func (r *Remote) Close() error { return r.b.Close() }

// Export advertises a service at the remote trader.
func (r *Remote) Export(serviceType string, ref naming.InterfaceRef, props values.Value) (string, error) {
	if props.IsNull() {
		props = values.Record()
	}
	term, res, err := r.b.Invoke(context.Background(), "Export", []values.Value{
		values.Str(serviceType),
		ref.ToValue(),
		values.Any(values.TypeOf(props), props),
	})
	if err != nil {
		return "", err
	}
	if term != "OK" {
		return "", remoteFailure("Export", res)
	}
	id, _ := res[0].AsString()
	return id, nil
}

// Withdraw removes an offer at the remote trader.
func (r *Remote) Withdraw(offerID string) error {
	term, res, err := r.b.Invoke(context.Background(), "Withdraw", []values.Value{values.Str(offerID)})
	if err != nil {
		return err
	}
	if term != "OK" {
		return remoteFailure("Withdraw", res)
	}
	return nil
}

// Install re-homes an offer (identity preserved) at the remote trader.
func (r *Remote) Install(o Offer) error {
	term, res, err := r.b.Invoke(context.Background(), "Install", []values.Value{offerToValue(o)})
	if err != nil {
		return err
	}
	if term != "OK" {
		return remoteFailure("Install", res)
	}
	return nil
}

// Import queries the remote trader.
func (r *Remote) Import(req ImportRequest) ([]Offer, error) {
	term, res, err := r.b.Invoke(context.Background(), "Import", []values.Value{
		values.Str(req.ServiceType),
		values.Str(req.Constraint),
		values.Int(int64(req.Preference.Kind)),
		values.Str(req.Preference.Expr),
		values.Int(int64(req.MaxMatches)),
		values.Int(int64(req.MaxHops)),
	})
	if err != nil {
		return nil, err
	}
	if term != "OK" {
		return nil, remoteFailure("Import", res)
	}
	seq := res[0]
	out := make([]Offer, 0, seq.Len())
	for i := 0; i < seq.Len(); i++ {
		o, err := offerFromValue(seq.ElemAt(i))
		if err != nil {
			return nil, err
		}
		out = append(out, o)
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
	return fmt.Errorf("trader: remote %s failed: %s", op, reason)
}
