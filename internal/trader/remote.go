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
	"errors"
	"fmt"
	"time"

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
			// NoSuchOffer is ErrNoSuchOffer across the boundary: the
			// sharded front-end's withdraw fallback and its migration
			// both branch on it.
			types.Term("NoSuchOffer"),
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

// Servant adapts a trading function — a Trader, or any other Shard such
// as a sharded front-end — to channel.Handler so it can be registered as
// an interface of an engineering object.
type Servant struct {
	T Shard
}

var _ channel.Handler = (*Servant)(nil)

// arity is each operation's argument count. The servant checks it itself:
// registered untyped, or joined to a group in process, it has no stub in
// front of it to do so.
var arity = map[string]int{"Export": 3, "Withdraw": 1, "Install": 1, "Import": 6}

// Invoke implements channel.Handler.
func (s *Servant) Invoke(_ context.Context, op string, args []values.Value) (string, []values.Value, error) {
	fail := func(err error) (string, []values.Value, error) {
		return "Error", []values.Value{values.Str(err.Error())}, nil
	}
	if n, ok := arity[op]; ok && len(args) != n {
		return fail(fmt.Errorf("%w: %s takes %d arguments, got %d", ErrBadRequest, op, n, len(args)))
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
			if errors.Is(err, ErrNoSuchOffer) {
				return "NoSuchOffer", nil, nil
			}
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

// carrier is whatever carries the proxy's calls to the trader: a
// *channel.Binding to the one node hosting it, or a
// *coordination.ReplicaGroup or *coordination.FailoverGroup of such
// bindings (or of in-process members). The channel decides how a call is
// carried; the proxy never knows.
//
// Behind a replica group every member must mint the same offer id for
// the same sequenced Export, or the group reports divergence. Ids come
// from the trader's name and a per-trader counter, so members built with
// New(<one name>, repo) satisfy that; the group's total order does the
// rest.
type carrier interface {
	Invoke(ctx context.Context, op string, args []values.Value) (string, []values.Value, error)
	Close() error
}

// Remote is the client proxy to a trader hosted elsewhere. It satisfies
// Shard (and so Importer): it can be a federation link target or a shard
// of a ShardedTrader like a local *Trader.
type Remote struct {
	c carrier
	// read carries Import: the carrier's InvokeRead when it has one — a
	// replica group answers a read from a single member instead of
	// sequencing it through all — and its Invoke otherwise.
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
// partitioned trader host must not block them for ever. 30s is what
// odpnode -call, odpstat and odptrader's link contract allow a call.
const callTimeout = 30 * time.Second

// call carries one operation over invoke under callTimeout.
func call(invoke func(context.Context, string, []values.Value) (string, []values.Value, error), op string, args []values.Value) (string, []values.Value, error) {
	ctx, cancel := context.WithTimeout(context.TODO(), callTimeout)
	defer cancel()
	return invoke(ctx, op, args)
}

// update carries one state-changing operation and decodes its failure
// terminations; on OK it returns the results.
func (r *Remote) update(op string, args ...values.Value) ([]values.Value, error) {
	term, res, err := call(r.c.Invoke, op, args)
	switch {
	case err != nil:
		return nil, err
	case term == "OK":
		return res, nil
	case term == "NoSuchOffer":
		return nil, fmt.Errorf("trader: remote %s: %w", op, ErrNoSuchOffer)
	}
	return nil, remoteFailure(op, res)
}

// Export advertises a service and returns the offer id the trader (or
// every replica of it) minted.
func (r *Remote) Export(serviceType string, ref naming.InterfaceRef, props values.Value) (string, error) {
	if props.IsNull() {
		props = values.Record()
	}
	res, err := r.update("Export",
		values.Str(serviceType), ref.ToValue(), values.Any(values.TypeOf(props), props))
	if err != nil {
		return "", err
	}
	if len(res) != 1 {
		return "", remoteFailure("Export", nil)
	}
	id, _ := res[0].AsString()
	return id, nil
}

// Withdraw removes an offer; an id the trader does not hold is
// ErrNoSuchOffer, as from a local trader.
func (r *Remote) Withdraw(offerID string) error {
	_, err := r.update("Withdraw", values.Str(offerID))
	return err
}

// Install re-homes an offer, identity preserved — the rebalance path, so
// a shard migrating onto a replica group lands replicated.
func (r *Remote) Install(o Offer) error {
	_, err := r.update("Install", offerToValue(o))
	return err
}

// Import queries the trader.
func (r *Remote) Import(req ImportRequest) ([]Offer, error) {
	term, res, err := call(r.read, "Import", []values.Value{
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
	if term != "OK" || len(res) != 1 {
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
