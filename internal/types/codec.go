package types

// Interface types must themselves travel through the ODP system — the type
// repository (Section 8.3.1) serves them to traders and binders at run
// time. This file maps Interface and values.DataType to and from the value
// model, so a type definition is just another value on the wire.

import (
	"errors"
	"fmt"

	"repro/internal/values"
)

// ErrBadTypeValue is wrapped by decoding failures.
var ErrBadTypeValue = errors.New("types: malformed encoded type")

// dataTypeToValue encodes a data type as a value.
func dataTypeToValue(t *values.DataType) values.Value {
	if t == nil {
		return values.Null()
	}
	fields := []values.Field{
		values.F("kind", values.Uint(uint64(t.Kind))),
		values.F("name", values.Str(t.Name)),
	}
	switch t.Kind {
	case values.KindEnum:
		syms := make([]values.Value, len(t.Symbols))
		for i, s := range t.Symbols {
			syms[i] = values.Str(s)
		}
		fields = append(fields, values.F("symbols", values.Seq(syms...)))
	case values.KindRecord:
		fs := make([]values.Value, len(t.Fields))
		for i, f := range t.Fields {
			fs[i] = values.Record(
				values.F("name", values.Str(f.Name)),
				values.F("type", dataTypeToValue(f.Type)),
			)
		}
		fields = append(fields, values.F("fields", values.Seq(fs...)))
	case values.KindSeq:
		fields = append(fields, values.F("elem", dataTypeToValue(t.Elem)))
	}
	return values.Record(fields...)
}

// dataTypeFromValue decodes a data type previously encoded by
// dataTypeToValue.
func dataTypeFromValue(v values.Value) (*values.DataType, error) {
	if v.IsNull() {
		return nil, nil
	}
	if v.Kind() != values.KindRecord {
		return nil, fmt.Errorf("%w: data type must be a record, got %v", ErrBadTypeValue, v.Kind())
	}
	kindV, ok := v.FieldByName("kind")
	if !ok {
		return nil, fmt.Errorf("%w: missing kind", ErrBadTypeValue)
	}
	kindU, ok := kindV.AsUint()
	if !ok {
		return nil, fmt.Errorf("%w: kind must be uint", ErrBadTypeValue)
	}
	kind := values.Kind(kindU)
	if !kind.Valid() {
		return nil, fmt.Errorf("%w: unknown kind %d", ErrBadTypeValue, kindU)
	}
	name := ""
	if nv, ok := v.FieldByName("name"); ok {
		name, _ = nv.AsString()
	}
	dt := &values.DataType{Kind: kind, Name: name}
	switch kind {
	case values.KindEnum:
		sv, ok := v.FieldByName("symbols")
		if !ok || sv.Kind() != values.KindSeq {
			return nil, fmt.Errorf("%w: enum missing symbols", ErrBadTypeValue)
		}
		for i := 0; i < sv.Len(); i++ {
			s, ok := sv.ElemAt(i).AsString()
			if !ok {
				return nil, fmt.Errorf("%w: enum symbol %d not a string", ErrBadTypeValue, i)
			}
			dt.Symbols = append(dt.Symbols, s)
		}
	case values.KindRecord:
		fv, ok := v.FieldByName("fields")
		if !ok || fv.Kind() != values.KindSeq {
			return nil, fmt.Errorf("%w: record missing fields", ErrBadTypeValue)
		}
		for i := 0; i < fv.Len(); i++ {
			f := fv.ElemAt(i)
			nameV, ok := f.FieldByName("name")
			if !ok {
				return nil, fmt.Errorf("%w: record field %d missing name", ErrBadTypeValue, i)
			}
			fname, ok := nameV.AsString()
			if !ok {
				return nil, fmt.Errorf("%w: record field %d name not a string", ErrBadTypeValue, i)
			}
			tv, ok := f.FieldByName("type")
			if !ok {
				return nil, fmt.Errorf("%w: record field %q missing type", ErrBadTypeValue, fname)
			}
			ft, err := dataTypeFromValue(tv)
			if err != nil {
				return nil, fmt.Errorf("record field %q: %w", fname, err)
			}
			dt.Fields = append(dt.Fields, values.FT(fname, ft))
		}
	case values.KindSeq:
		ev, ok := v.FieldByName("elem")
		if !ok {
			return nil, fmt.Errorf("%w: seq missing elem", ErrBadTypeValue)
		}
		elem, err := dataTypeFromValue(ev)
		if err != nil {
			return nil, fmt.Errorf("seq elem: %w", err)
		}
		dt.Elem = elem
	}
	return dt, nil
}

func paramsToValue(ps []Parameter) values.Value {
	out := make([]values.Value, len(ps))
	for i, p := range ps {
		out[i] = values.Record(
			values.F("name", values.Str(p.Name)),
			values.F("type", dataTypeToValue(p.Type)),
		)
	}
	return values.Seq(out...)
}

func paramsFromValue(v values.Value) ([]Parameter, error) {
	if v.Kind() != values.KindSeq {
		return nil, fmt.Errorf("%w: parameters must be a seq", ErrBadTypeValue)
	}
	var ps []Parameter
	for i := 0; i < v.Len(); i++ {
		pv := v.ElemAt(i)
		nv, ok := pv.FieldByName("name")
		if !ok {
			return nil, fmt.Errorf("%w: parameter %d missing name", ErrBadTypeValue, i)
		}
		name, ok := nv.AsString()
		if !ok {
			return nil, fmt.Errorf("%w: parameter %d name not a string", ErrBadTypeValue, i)
		}
		tv, ok := pv.FieldByName("type")
		if !ok {
			return nil, fmt.Errorf("%w: parameter %q missing type", ErrBadTypeValue, name)
		}
		t, err := dataTypeFromValue(tv)
		if err != nil {
			return nil, fmt.Errorf("parameter %q: %w", name, err)
		}
		ps = append(ps, P(name, t))
	}
	return ps, nil
}

// ToValue encodes the interface type as a value for transmission.
func (it *Interface) ToValue() values.Value {
	ops := make([]values.Value, len(it.Operations))
	for i, op := range it.Operations {
		terms := make([]values.Value, len(op.Terminations))
		for j, term := range op.Terminations {
			terms[j] = values.Record(
				values.F("name", values.Str(term.Name)),
				values.F("results", paramsToValue(term.Results)),
			)
		}
		ops[i] = values.Record(
			values.F("name", values.Str(op.Name)),
			values.F("params", paramsToValue(op.Params)),
			values.F("terminations", values.Seq(terms...)),
		)
	}
	flows := make([]values.Value, len(it.Flows))
	for i, f := range it.Flows {
		flows[i] = values.Record(
			values.F("name", values.Str(f.Name)),
			values.F("direction", values.Uint(uint64(f.Direction))),
			values.F("elem", dataTypeToValue(f.Elem)),
		)
	}
	sigs := make([]values.Value, len(it.Signals))
	for i, s := range it.Signals {
		sigs[i] = values.Record(
			values.F("name", values.Str(s.Name)),
			values.F("primitive", values.Uint(uint64(s.Primitive))),
			values.F("params", paramsToValue(s.Params)),
		)
	}
	return values.Record(
		values.F("name", values.Str(it.Name)),
		values.F("kind", values.Uint(uint64(it.Kind))),
		values.F("operations", values.Seq(ops...)),
		values.F("flows", values.Seq(flows...)),
		values.F("signals", values.Seq(sigs...)),
	)
}

// InterfaceFromValue decodes an interface type previously encoded by
// ToValue and validates it.
func InterfaceFromValue(v values.Value) (*Interface, error) {
	if v.Kind() != values.KindRecord {
		return nil, fmt.Errorf("%w: interface must be a record", ErrBadTypeValue)
	}
	strField := func(name string) (string, error) {
		fv, ok := v.FieldByName(name)
		if !ok {
			return "", fmt.Errorf("%w: missing %s", ErrBadTypeValue, name)
		}
		s, ok := fv.AsString()
		if !ok {
			return "", fmt.Errorf("%w: %s not a string", ErrBadTypeValue, name)
		}
		return s, nil
	}
	name, err := strField("name")
	if err != nil {
		return nil, err
	}
	kv, ok := v.FieldByName("kind")
	if !ok {
		return nil, fmt.Errorf("%w: missing kind", ErrBadTypeValue)
	}
	ku, ok := kv.AsUint()
	if !ok {
		return nil, fmt.Errorf("%w: kind not a uint", ErrBadTypeValue)
	}
	it := &Interface{Name: name, Kind: InterfaceKind(ku)}

	if ov, ok := v.FieldByName("operations"); ok && ov.Kind() == values.KindSeq {
		for i := 0; i < ov.Len(); i++ {
			opv := ov.ElemAt(i)
			onv, _ := opv.FieldByName("name")
			oname, _ := onv.AsString()
			pv, ok := opv.FieldByName("params")
			if !ok {
				return nil, fmt.Errorf("%w: operation %q missing params", ErrBadTypeValue, oname)
			}
			params, err := paramsFromValue(pv)
			if err != nil {
				return nil, fmt.Errorf("operation %q: %w", oname, err)
			}
			var terms []Termination
			if tv, ok := opv.FieldByName("terminations"); ok && tv.Kind() == values.KindSeq {
				for j := 0; j < tv.Len(); j++ {
					termv := tv.ElemAt(j)
					tnv, _ := termv.FieldByName("name")
					tname, _ := tnv.AsString()
					rv, ok := termv.FieldByName("results")
					if !ok {
						return nil, fmt.Errorf("%w: termination %q missing results", ErrBadTypeValue, tname)
					}
					results, err := paramsFromValue(rv)
					if err != nil {
						return nil, fmt.Errorf("termination %q: %w", tname, err)
					}
					terms = append(terms, Termination{Name: tname, Results: results})
				}
			}
			it.Operations = append(it.Operations, Operation{Name: oname, Params: params, Terminations: terms})
		}
	}
	if fv, ok := v.FieldByName("flows"); ok && fv.Kind() == values.KindSeq {
		for i := 0; i < fv.Len(); i++ {
			flv := fv.ElemAt(i)
			fnv, _ := flv.FieldByName("name")
			fname, _ := fnv.AsString()
			dv, ok := flv.FieldByName("direction")
			if !ok {
				return nil, fmt.Errorf("%w: flow %q missing direction", ErrBadTypeValue, fname)
			}
			du, _ := dv.AsUint()
			ev, ok := flv.FieldByName("elem")
			if !ok {
				return nil, fmt.Errorf("%w: flow %q missing elem", ErrBadTypeValue, fname)
			}
			elem, err := dataTypeFromValue(ev)
			if err != nil {
				return nil, fmt.Errorf("flow %q: %w", fname, err)
			}
			it.Flows = append(it.Flows, Flow{Name: fname, Direction: FlowDirection(du), Elem: elem})
		}
	}
	if sv, ok := v.FieldByName("signals"); ok && sv.Kind() == values.KindSeq {
		for i := 0; i < sv.Len(); i++ {
			sgv := sv.ElemAt(i)
			snv, _ := sgv.FieldByName("name")
			sname, _ := snv.AsString()
			prv, ok := sgv.FieldByName("primitive")
			if !ok {
				return nil, fmt.Errorf("%w: signal %q missing primitive", ErrBadTypeValue, sname)
			}
			pru, _ := prv.AsUint()
			pv, ok := sgv.FieldByName("params")
			if !ok {
				return nil, fmt.Errorf("%w: signal %q missing params", ErrBadTypeValue, sname)
			}
			params, err := paramsFromValue(pv)
			if err != nil {
				return nil, fmt.Errorf("signal %q: %w", sname, err)
			}
			it.Signals = append(it.Signals, SignalDecl{Name: sname, Primitive: SignalPrimitive(pru), Params: params})
		}
	}
	if err := it.Validate(); err != nil {
		return nil, fmt.Errorf("%w: decoded interface invalid: %v", ErrBadTypeValue, err)
	}
	return it, nil
}
