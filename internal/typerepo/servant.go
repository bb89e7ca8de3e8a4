package typerepo

// The type repository is itself an ODP infrastructure object (Section 5
// lists "a type repository or a trader" as the canonical examples), so
// it gets the same treatment as the trader and relocator: Servant adapts
// a Repository to the channel.Handler call shape, which is also exactly
// the surface a coordination replica group fans out to, and Remote
// (remote.go) is the client proxy. That is what lets the registration
// write path run ReplicaGroup-ordered across a fleet of stores while
// readers keep the plain Repository interface.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/types"
	"repro/internal/values"
)

// Servant adapts a Repository to the servant call shape
// (op string, args []values.Value) -> (term, results, error).
//
// Terms: "OK" on success; "NotFound" and "Conflict" carry the matching
// sentinel condition so proxies can rehydrate ErrNotFound/ErrConflict;
// every other failure is "Error" with a reason string.
type Servant struct {
	R Repository
}

// arity is each operation's argument count. The servant checks it itself:
// it is registered untyped or joined to a group in process, so it has no
// stub in front of it to do so.
var arity = map[string]int{
	"RegisterInterface": 1, "RegisterData": 2, "DeclareSubtype": 2, "Relate": 3,
	"LookupInterface": 1, "LookupData": 1, "IsSubtype": 2, "Interfaces": 0,
	"Supertypes": 1, "Subtypes": 1, "DeclaredSupertypes": 1, "Related": 2, "Gen": 0,
}

// Invoke dispatches one repository operation.
func (s *Servant) Invoke(_ context.Context, op string, args []values.Value) (string, []values.Value, error) {
	fail := func(err error) (string, []values.Value, error) {
		term := "Error"
		switch {
		case errors.Is(err, ErrNotFound):
			term = "NotFound"
		case errors.Is(err, ErrConflict):
			term = "Conflict"
		}
		return term, []values.Value{values.Str(err.Error())}, nil
	}
	strSeq := func(ss []string) values.Value {
		out := make([]values.Value, len(ss))
		for i, v := range ss {
			out[i] = values.Str(v)
		}
		return values.SeqOwned(out)
	}
	if n, ok := arity[op]; ok && len(args) != n {
		return fail(fmt.Errorf("typerepo: %s takes %d arguments, got %d", op, n, len(args)))
	}
	switch op {
	case "RegisterInterface":
		it, err := types.InterfaceFromValue(args[0])
		if err != nil {
			return fail(err)
		}
		if err := s.R.RegisterInterface(it); err != nil {
			return fail(err)
		}
		return "OK", nil, nil
	case "RegisterData":
		name, _ := args[0].AsString()
		dt, err := types.DataTypeFromValue(args[1])
		if err != nil {
			return fail(err)
		}
		if err := s.R.RegisterData(name, dt); err != nil {
			return fail(err)
		}
		return "OK", nil, nil
	case "DeclareSubtype":
		sub, _ := args[0].AsString()
		super, _ := args[1].AsString()
		if err := s.R.DeclareSubtype(sub, super); err != nil {
			return fail(err)
		}
		return "OK", nil, nil
	case "Relate":
		relation, _ := args[0].AsString()
		from, _ := args[1].AsString()
		to, _ := args[2].AsString()
		if err := s.R.Relate(relation, from, to); err != nil {
			return fail(err)
		}
		return "OK", nil, nil
	case "LookupInterface":
		name, _ := args[0].AsString()
		it, err := s.R.LookupInterface(name)
		if err != nil {
			return fail(err)
		}
		return "OK", []values.Value{it.ToValue()}, nil
	case "LookupData":
		name, _ := args[0].AsString()
		dt, err := s.R.LookupData(name)
		if err != nil {
			return fail(err)
		}
		return "OK", []values.Value{types.DataTypeToValue(dt)}, nil
	case "IsSubtype":
		sub, _ := args[0].AsString()
		super, _ := args[1].AsString()
		ok, err := s.R.IsSubtype(sub, super)
		if err != nil {
			return fail(err)
		}
		return "OK", []values.Value{values.Bool(ok)}, nil
	case "Interfaces":
		return "OK", []values.Value{strSeq(s.R.Interfaces())}, nil
	case "Supertypes":
		name, _ := args[0].AsString()
		ss, err := s.R.Supertypes(name)
		if err != nil {
			return fail(err)
		}
		return "OK", []values.Value{strSeq(ss)}, nil
	case "Subtypes":
		name, _ := args[0].AsString()
		ss, err := s.R.Subtypes(name)
		if err != nil {
			return fail(err)
		}
		return "OK", []values.Value{strSeq(ss)}, nil
	case "DeclaredSupertypes":
		name, _ := args[0].AsString()
		return "OK", []values.Value{strSeq(s.R.DeclaredSupertypes(name))}, nil
	case "Related":
		relation, _ := args[0].AsString()
		from, _ := args[1].AsString()
		return "OK", []values.Value{strSeq(s.R.Related(relation, from))}, nil
	case "Gen":
		return "OK", []values.Value{values.Int(int64(s.R.Gen()))}, nil
	}
	return "", nil, fmt.Errorf("typerepo: no operation %q", op)
}
