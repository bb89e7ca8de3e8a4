package types

import "repro/internal/values"

// This file provides the concise construction API for interface types.
// The tutorial's own notation (Section 5.1) is "merely illustrative"; this
// builder is its Go embedding. The paper's BankTeller example reads:
//
//	teller := types.OpInterface("BankTeller",
//		types.Op("Deposit",
//			types.Params(types.P("c", customer), types.P("a", account), types.P("d", dollars)),
//			types.Term("OK", types.P("new_balance", dollars)),
//			types.Term("Error", types.P("reason", values.TString())),
//		),
//		...
//	)

// OpInterface constructs an operational interface type.
func OpInterface(name string, ops ...Operation) *Interface {
	cp := make([]Operation, len(ops))
	copy(cp, ops)
	return &Interface{Name: name, Kind: Operational, Operations: cp}
}

// StreamInterface constructs a stream interface type.
func StreamInterface(name string, flows ...Flow) *Interface {
	cp := make([]Flow, len(flows))
	copy(cp, flows)
	return &Interface{Name: name, Kind: Stream, Flows: cp}
}

// Params collects operation parameters; it exists purely to make Op calls
// read naturally.
func Params(ps ...Parameter) []Parameter { return ps }

// Op constructs an interrogation with the given parameters and terminations.
func Op(name string, params []Parameter, terms ...Termination) Operation {
	cp := make([]Termination, len(terms))
	copy(cp, terms)
	return Operation{Name: name, Params: params, Terminations: cp}
}

// Announce constructs an announcement (an operation with no terminations).
func Announce(name string, params ...Parameter) Operation {
	return Operation{Name: name, Params: params}
}

// Term constructs a named termination with the given results.
func Term(name string, results ...Parameter) Termination {
	return Termination{Name: name, Results: results}
}

// FlowOf constructs a flow with the given direction and element type.
func FlowOf(name string, dir FlowDirection, elem *values.DataType) Flow {
	return Flow{Name: name, Direction: dir, Elem: elem}
}

// Extend derives a subtype by copying base and appending the extra
// operations — the inheritance mechanism the tutorial describes as
// "inheritance of an interface type (usually) creates a subtype
// relationship". The result is a structural subtype of base provided the
// extra operations do not clash with inherited ones (Validate will catch
// clashes).
func Extend(name string, base *Interface, extra ...Operation) *Interface {
	ops := make([]Operation, 0, len(base.Operations)+len(extra))
	ops = append(ops, base.Operations...)
	ops = append(ops, extra...)
	return &Interface{Name: name, Kind: base.Kind, Operations: ops}
}
