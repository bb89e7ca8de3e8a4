package typerepo

// The type repository is itself an ODP infrastructure object (Section 5
// lists "a type repository or a trader" as the canonical examples), served
// like the trader and the relocator: Servant adapts a Repository to
// channel.Handler, the surface a node serves and a coordination replica
// group fans out to, and Remote is the client proxy. That lets the
// registration write path run ReplicaGroup-ordered across a fleet of
// stores while readers keep the plain Repository interface.

import (
	"context"
	"fmt"

	"repro/internal/stub"
	"repro/internal/types"
	"repro/internal/values"
)

// failures is the repository's failure table: each sentinel crosses the
// wire as itself.
var failures = stub.Failures{
	{Term: "NotFound", Err: ErrNotFound},
	{Term: "Conflict", Err: ErrConflict},
	{Term: "BadDecl", Err: ErrBadDecl},
	{Term: "BadType", Err: ErrBadType},
}

var contract = stub.Contract{Service: "typerepo", Type: InterfaceType(), Failures: failures}

// InterfaceType returns the type repository's operational interface type:
// one operation per Repository method. Encoded types travel as any.
func InterfaceType() *types.Interface {
	str := func(name string) types.Parameter { return types.P(name, values.TString()) }
	typ := types.P("type", values.TAny())
	pair := types.Params(str("sub"), str("super"))
	return types.OpInterface("odp.TypeRepository",
		failures.Op("RegisterInterface", types.Params(typ), types.Term("OK")),
		failures.Op("LookupInterface", types.Params(str("name")), types.Term("OK", typ)),
		failures.Op("Interfaces", types.Params(), types.Term("OK", types.P("names", values.TSeq(values.TString())))),
		failures.Op("DeclareSubtype", pair, types.Term("OK")),
		failures.Op("IsSubtype", pair, types.Term("OK", types.P("verdict", values.TBool()))),
		failures.Op("Gen", types.Params(), types.Term("OK", types.P("gen", values.TInt()))),
	)
}

// Servant adapts a Repository to the servant call shape
// (op string, args []values.Value) -> (term, results, error).
type Servant struct {
	R Repository
}

// Invoke dispatches one repository operation.
func (s *Servant) Invoke(_ context.Context, op string, args []values.Value) (string, []values.Value, error) {
	if err := contract.Admit(op, args); err != nil {
		return contract.Reply(err)
	}
	str := func(i int) string { v, _ := args[i].AsString(); return v }
	switch op {
	case "RegisterInterface":
		it, err := types.InterfaceFromValue(stub.Bare(args[0]))
		if err != nil {
			return contract.Reply(fmt.Errorf("%w: %v", ErrBadType, err))
		}
		return contract.Reply(s.R.RegisterInterface(it))
	case "LookupInterface":
		it, err := s.R.LookupInterface(str(0))
		if err != nil {
			return contract.Reply(err)
		}
		return contract.Reply(nil, stub.Any(it.ToValue()))
	case "Interfaces":
		names, err := s.R.Interfaces()
		return contract.Reply(err, stub.Seq(names, values.Str))
	case "DeclareSubtype":
		return contract.Reply(s.R.DeclareSubtype(str(0), str(1)))
	case "IsSubtype":
		ok, err := s.R.IsSubtype(str(0), str(1))
		return contract.Reply(err, values.Bool(ok))
	case "Gen":
		return contract.Reply(nil, values.Int(int64(s.R.Gen())))
	}
	return "", nil, fmt.Errorf("typerepo: no operation %q", op)
}

// Remote is the client proxy to a repository hosted elsewhere: a
// Repository whose every call is a Servant operation. Over a replica
// group, registrations run through the group's ticket-ordered fan-out
// (every member applies the same write stream in the same order) and
// reads come from one live member — the intended authority behind
// NewReplicated, whose gen-fenced local replicas serve the hot reads
// while the rare writes funnel through the group's total order.
type Remote struct {
	c stub.Client
}

var _ Repository = (*Remote)(nil)

// NewRemote returns a proxy whose calls travel over c.
func NewRemote(c stub.Carrier) *Remote { return &Remote{c: contract.Client(c)} }

// Close releases the carrier.
func (r *Remote) Close() error { return r.c.Close() }

// query returns the single result every read operation answers with.
func (r *Remote) query(op string, args ...values.Value) (values.Value, error) {
	res, err := r.c.Read(op, args...)
	if err != nil {
		return values.Value{}, err
	}
	return stub.Bare(res[0]), nil
}

// RegisterInterface registers an interface type. A type the store would
// refuse is refused before it travels, as the store would.
func (r *Remote) RegisterInterface(it *types.Interface) error {
	if err := checkInterface(it); err != nil {
		return err
	}
	_, err := r.c.Update("RegisterInterface", stub.Any(it.ToValue()))
	return err
}

// LookupInterface resolves an interface type.
func (r *Remote) LookupInterface(name string) (*types.Interface, error) {
	v, err := r.query("LookupInterface", values.Str(name))
	if err != nil {
		return nil, err
	}
	return types.InterfaceFromValue(v)
}

// Interfaces enumerates the registered interface names.
func (r *Remote) Interfaces() ([]string, error) {
	v, err := r.query("Interfaces")
	if err != nil {
		return nil, err
	}
	return stub.Elems(v, func(e values.Value) (string, error) { s, _ := e.AsString(); return s, nil })
}

// DeclareSubtype checks a declared subtype claim. The check changes
// nothing, so it travels as a read.
func (r *Remote) DeclareSubtype(sub, super string) error {
	_, err := r.c.Read("DeclareSubtype", values.Str(sub), values.Str(super))
	return err
}

// IsSubtype asks for the substitutability verdict.
func (r *Remote) IsSubtype(sub, super string) (bool, error) {
	v, err := r.query("IsSubtype", values.Str(sub), values.Str(super))
	if err != nil {
		return false, err
	}
	ok, _ := v.AsBool()
	return ok, nil
}

// Gen reads the generation fence (0 when the call fails). Members of a
// replica group apply the same sequenced write stream, so their
// generations agree once the group's Invoke has returned — which is
// exactly when a front-end's next read consults the fence.
func (r *Remote) Gen() uint64 {
	v, err := r.query("Gen")
	if err != nil {
		return 0
	}
	n, _ := v.AsInt()
	return uint64(n)
}
