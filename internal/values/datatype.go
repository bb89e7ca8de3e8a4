package values

import (
	"errors"
	"fmt"
	"strings"
)

// ErrTypeMismatch is wrapped by all Check failures.
var ErrTypeMismatch = errors.New("values: type mismatch")

// FieldType is a named member of a record data type.
type FieldType struct {
	Name string
	Type *DataType
}

// DataType describes the type of a Value. Data types are structural: two
// data types with the same shape are interchangeable regardless of Name
// (Name is carried for diagnostics and for the type repository's registry).
//
// DataType values are immutable after construction; construct them with
// the TBool, TInt, ... constructors.
type DataType struct {
	Kind    Kind
	Name    string      // optional: declared name for records/enums
	Fields  []FieldType // record members, order-significant
	Elem    *DataType   // sequence element type
	Symbols []string    // enum symbols, order-significant
}

// Scalar data-type singletons.
var (
	tNull   = &DataType{Kind: KindNull}
	tBool   = &DataType{Kind: KindBool}
	tInt    = &DataType{Kind: KindInt}
	tUint   = &DataType{Kind: KindUint}
	tFloat  = &DataType{Kind: KindFloat}
	tString = &DataType{Kind: KindString}
	tBytes  = &DataType{Kind: KindBytes}
	tAny    = &DataType{Kind: KindAny}
)

// TNull returns the null data type.
func TNull() *DataType { return tNull }

// TBool returns the boolean data type.
func TBool() *DataType { return tBool }

// TInt returns the 64-bit signed integer data type.
func TInt() *DataType { return tInt }

// TUint returns the 64-bit unsigned integer data type.
func TUint() *DataType { return tUint }

// TFloat returns the IEEE-754 double data type.
func TFloat() *DataType { return tFloat }

// TString returns the string data type.
func TString() *DataType { return tString }

// TBytes returns the opaque octet-sequence data type.
func TBytes() *DataType { return tBytes }

// TAny returns the dynamically-typed data type.
func TAny() *DataType { return tAny }

// TEnum constructs an enum data type over the given symbols.
func TEnum(name string, symbols ...string) *DataType {
	cp := make([]string, len(symbols))
	copy(cp, symbols)
	return &DataType{Kind: KindEnum, Name: name, Symbols: cp}
}

// TRecord constructs a record data type with the given named fields.
func TRecord(name string, fields ...FieldType) *DataType {
	cp := make([]FieldType, len(fields))
	copy(cp, fields)
	return &DataType{Kind: KindRecord, Name: name, Fields: cp}
}

// FT is shorthand for constructing a record FieldType.
func FT(name string, t *DataType) FieldType { return FieldType{Name: name, Type: t} }

// TSeq constructs a sequence data type with the given element type.
func TSeq(elem *DataType) *DataType { return &DataType{Kind: KindSeq, Elem: elem} }

// Equal reports structural equality of two data types, ignoring Name.
func (t *DataType) Equal(u *DataType) bool {
	if t == u {
		return true
	}
	if t == nil || u == nil {
		return false
	}
	if t.Kind != u.Kind {
		return false
	}
	switch t.Kind {
	case KindEnum:
		if len(t.Symbols) != len(u.Symbols) {
			return false
		}
		for i := range t.Symbols {
			if t.Symbols[i] != u.Symbols[i] {
				return false
			}
		}
		return true
	case KindRecord:
		if len(t.Fields) != len(u.Fields) {
			return false
		}
		for i := range t.Fields {
			if t.Fields[i].Name != u.Fields[i].Name || !t.Fields[i].Type.Equal(u.Fields[i].Type) {
				return false
			}
		}
		return true
	case KindSeq:
		return t.Elem.Equal(u.Elem)
	}
	return true
}

// AssignableTo reports whether a value of type t may be used where a value
// of type u is expected. It is the data-level conformance relation that the
// interface subtype checker (package types) builds on:
//
//   - scalars must match exactly,
//   - an enum is assignable to an enum whose symbol set contains it,
//   - a record is assignable to a record with a (possibly shorter) prefix-free
//     subset of its fields, each field-wise assignable (width and depth
//     subtyping),
//   - a sequence is assignable when its element type is (covariance),
//   - anything is assignable to Any.
func (t *DataType) AssignableTo(u *DataType) bool {
	if t == nil || u == nil {
		return false
	}
	if u.Kind == KindAny {
		return true
	}
	if t.Kind != u.Kind {
		return false
	}
	switch t.Kind {
	case KindEnum:
		// A value of type t is one of t's symbols, so every symbol of t
		// must be a symbol of u.
		uset := make(map[string]bool, len(u.Symbols))
		for _, s := range u.Symbols {
			uset[s] = true
		}
		for _, s := range t.Symbols {
			if !uset[s] {
				return false
			}
		}
		return true
	case KindRecord:
		// u's fields must each exist in t (by name) with assignable types.
		byName := make(map[string]*DataType, len(t.Fields))
		for _, f := range t.Fields {
			byName[f.Name] = f.Type
		}
		for _, uf := range u.Fields {
			tf, ok := byName[uf.Name]
			if !ok || !tf.AssignableTo(uf.Type) {
				return false
			}
		}
		return true
	case KindSeq:
		return t.Elem.AssignableTo(u.Elem)
	}
	return true
}

// Check verifies that v conforms to t, returning a descriptive error
// wrapping ErrTypeMismatch otherwise.
func (t *DataType) Check(v Value) error {
	if t == nil {
		return fmt.Errorf("%w: nil data type", ErrTypeMismatch)
	}
	if t.Kind == KindAny {
		if v.Kind() == KindAny {
			return nil
		}
		return fmt.Errorf("%w: expected any, got %v", ErrTypeMismatch, v.Kind())
	}
	if v.Kind() != t.Kind {
		return fmt.Errorf("%w: expected %v, got %v", ErrTypeMismatch, t.Kind, v.Kind())
	}
	switch t.Kind {
	case KindEnum:
		sym, _ := v.AsEnum()
		for _, s := range t.Symbols {
			if s == sym {
				return nil
			}
		}
		return fmt.Errorf("%w: symbol %q not in enum %s", ErrTypeMismatch, sym, t.describe())
	case KindRecord:
		if v.NumFields() != len(t.Fields) {
			return fmt.Errorf("%w: record %s expects %d fields, got %d",
				ErrTypeMismatch, t.describe(), len(t.Fields), v.NumFields())
		}
		for i, ft := range t.Fields {
			fv := v.FieldAt(i)
			if fv.Name != ft.Name {
				return fmt.Errorf("%w: record %s field %d: expected %q, got %q",
					ErrTypeMismatch, t.describe(), i, ft.Name, fv.Name)
			}
			if err := ft.Type.Check(fv.Value); err != nil {
				return fmt.Errorf("field %q: %w", ft.Name, err)
			}
		}
	case KindSeq:
		for i := 0; i < v.Len(); i++ {
			if err := t.Elem.Check(v.ElemAt(i)); err != nil {
				return fmt.Errorf("element %d: %w", i, err)
			}
		}
	}
	return nil
}

func (t *DataType) describe() string {
	if t.Name != "" {
		return t.Name
	}
	return t.Kind.String()
}

// String renders the data type in a compact notation.
func (t *DataType) String() string {
	if t == nil {
		return "<nil>"
	}
	var sb strings.Builder
	t.format(&sb)
	return sb.String()
}

func (t *DataType) format(sb *strings.Builder) {
	switch t.Kind {
	case KindEnum:
		sb.WriteString("enum")
		if t.Name != "" {
			sb.WriteByte(' ')
			sb.WriteString(t.Name)
		}
		sb.WriteByte('{')
		sb.WriteString(strings.Join(t.Symbols, ","))
		sb.WriteByte('}')
	case KindRecord:
		sb.WriteString("record")
		if t.Name != "" {
			sb.WriteByte(' ')
			sb.WriteString(t.Name)
		}
		sb.WriteByte('{')
		for i, f := range t.Fields {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(f.Name)
			sb.WriteString(": ")
			f.Type.format(sb)
		}
		sb.WriteByte('}')
	case KindSeq:
		sb.WriteString("seq<")
		t.Elem.format(sb)
		sb.WriteByte('>')
	default:
		sb.WriteString(t.Kind.String())
	}
}

// TypeOf derives the structural data type of a value — used when a
// dynamically-built value (e.g. a trader property record) must be wrapped
// as an Any for transmission. Empty sequences type as seq<null>.
func TypeOf(v Value) *DataType {
	switch v.Kind() {
	case KindBool:
		return TBool()
	case KindInt:
		return TInt()
	case KindUint:
		return TUint()
	case KindFloat:
		return TFloat()
	case KindString:
		return TString()
	case KindBytes:
		return TBytes()
	case KindEnum:
		sym, _ := v.AsEnum()
		return TEnum("", sym)
	case KindRecord:
		fields := make([]FieldType, v.NumFields())
		for i := 0; i < v.NumFields(); i++ {
			f := v.FieldAt(i)
			fields[i] = FT(f.Name, TypeOf(f.Value))
		}
		return &DataType{Kind: KindRecord, Fields: fields}
	case KindSeq:
		if v.Len() == 0 {
			return TSeq(TNull())
		}
		return TSeq(TypeOf(v.ElemAt(0)))
	case KindAny:
		return TAny()
	}
	return TNull()
}
