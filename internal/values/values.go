// Package values implements the self-describing typed value model used in
// every ODP interaction.
//
// RM-ODP computational interactions (operation invocations, stream flows,
// signals) carry typed data between objects that may live on heterogeneous
// platforms. The values package provides the platform-neutral value model:
// a small algebra of scalar kinds plus records, sequences, enums, optionals
// and a dynamically-typed Any. Stubs in the engineering channel marshal
// these values into one of several concrete transfer representations (see
// package wire), which is how access transparency is achieved.
//
// The zero Value is the Null value.
package values

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Kind identifies the shape of a Value or DataType.
type Kind int

// The kinds of the ODP value algebra.
const (
	KindNull Kind = iota
	KindBool
	KindInt    // 64-bit signed
	KindUint   // 64-bit unsigned
	KindFloat  // IEEE-754 double
	KindString // UTF-8
	KindBytes  // opaque octets
	KindEnum   // named symbol from a declared set
	KindRecord // ordered named fields
	KindSeq    // homogeneous sequence
	KindAny    // dynamically typed: a value paired with its DataType
)

var kindNames = map[Kind]string{
	KindNull:   "null",
	KindBool:   "bool",
	KindInt:    "int",
	KindUint:   "uint",
	KindFloat:  "float",
	KindString: "string",
	KindBytes:  "bytes",
	KindEnum:   "enum",
	KindRecord: "record",
	KindSeq:    "seq",
	KindAny:    "any",
}

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Valid reports whether k is one of the declared kinds.
func (k Kind) Valid() bool {
	_, ok := kindNames[k]
	return ok
}

// Field is a named member of a record value.
type Field struct {
	Name  string
	Value Value
}

// Value is an immutable tagged union over the ODP value algebra.
// Construct values with the Bool, Int, Uint, Float, Str, Bytes, Enum,
// Record, Seq and Any constructors; the zero Value is Null.
type Value struct {
	// A Value is 40 bytes — a kind, one 8-byte scalar, one string header
	// and one pointer — because every argument, result, record field and
	// offer copies it. A kind uses at most two of the payload fields:
	//
	//   - bool, int, uint, float: num;
	//   - string, enum: str;
	//   - bytes: str, holding octets BytesVal copied in once (or that
	//     BytesOwned took over);
	//   - record, seq: num is the length and tail points at the first Field
	//     or Value of the backing array (Record and Seq copy into it, the
	//     *Owned constructors take it over);
	//   - any: tail points at an anyTail.
	//
	// Nothing writes a tail or the octets once a value holds them, so
	// copies of a value share both safely.
	_    [0]func()      // not comparable: == would compare tails by address
	kind Kind           // selects the fields below
	num  uint64         // scalar payload, or a composite's length
	str  string         // string, enum symbol, or the octets of a bytes value
	tail unsafe.Pointer // *Field, *Value or *anyTail
}

// anyTail is what an any value's tail points at.
type anyTail struct {
	typ *DataType
	val Value
}

// Null is the null value.
func Null() Value { return Value{} }

// Bool constructs a boolean value.
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{kind: KindBool, num: n}
}

// Int constructs a 64-bit signed integer value.
func Int(v int64) Value { return Value{kind: KindInt, num: uint64(v)} }

// Uint constructs a 64-bit unsigned integer value.
func Uint(v uint64) Value { return Value{kind: KindUint, num: v} }

// Float constructs an IEEE-754 double value.
func Float(v float64) Value { return Value{kind: KindFloat, num: math.Float64bits(v)} }

// Str constructs a string value.
func Str(v string) Value { return Value{kind: KindString, str: v} }

// BytesVal constructs an opaque octet-sequence value. The input is copied.
func BytesVal(v []byte) Value { return Value{kind: KindBytes, str: string(v)} }

// BytesOwned constructs an opaque octet-sequence value that takes
// ownership of b: the octets are not copied, and the caller must never
// write them again, whatever larger buffer b was carved from. Decoders use
// this to lend a value a region of a shared chunk; everyone else should
// prefer BytesVal. See RecordOwned.
func BytesOwned(b []byte) Value {
	return Value{kind: KindBytes, str: unsafe.String(unsafe.SliceData(b), len(b))}
}

// Enum constructs an enumeration value holding the given symbol.
func Enum(symbol string) Value { return Value{kind: KindEnum, str: symbol} }

// Record constructs a record value from the given fields. The slice is
// copied; field order is significant and preserved.
func Record(fields ...Field) Value {
	cp := make([]Field, len(fields))
	copy(cp, fields)
	return RecordOwned(cp)
}

// F is shorthand for constructing a record Field.
func F(name string, v Value) Field { return Field{Name: name, Value: v} }

// RecordOwned constructs a record value that takes ownership of fields:
// the slice is not copied, and the caller must neither read nor modify it
// afterwards. Decoders use this to build a record in a single allocation;
// everyone else should prefer Record, whose defensive copy preserves the
// value's immutability no matter what the caller does with the slice.
func RecordOwned(fields []Field) Value {
	return Value{kind: KindRecord, num: uint64(len(fields)), tail: unsafe.Pointer(unsafe.SliceData(fields))}
}

// SeqOwned constructs a sequence value that takes ownership of elems: the
// slice is not copied, and the caller must neither read nor modify it
// afterwards. See RecordOwned.
func SeqOwned(elems []Value) Value {
	return Value{kind: KindSeq, num: uint64(len(elems)), tail: unsafe.Pointer(unsafe.SliceData(elems))}
}

// Seq constructs a sequence value from the given elements. The slice is copied.
func Seq(elems ...Value) Value {
	cp := make([]Value, len(elems))
	copy(cp, elems)
	return SeqOwned(cp)
}

// Any wraps a value together with its data type for dynamically-typed
// transmission (the ODP "any" used e.g. in trader property lists).
func Any(t *DataType, v Value) Value {
	return Value{kind: KindAny, tail: unsafe.Pointer(&anyTail{typ: t, val: v})}
}

// fields returns a record's members, nil for any other kind. The slice
// aliases the value's immutable tail: read it, never write it.
func (v Value) fields() []Field {
	if v.kind != KindRecord {
		return nil
	}
	return unsafe.Slice((*Field)(v.tail), v.num)
}

// elems is fields for a sequence's elements.
func (v Value) elems() []Value {
	if v.kind != KindSeq {
		return nil
	}
	return unsafe.Slice((*Value)(v.tail), v.num)
}

// any returns an any value's tail: its data type and inner value.
func (v Value) any() *anyTail { return (*anyTail)(v.tail) }

// Kind returns the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is the null value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean payload; ok is false if the kind differs.
func (v Value) AsBool() (b, ok bool) {
	if v.kind != KindBool {
		return false, false
	}
	return v.num != 0, true
}

// AsInt returns the signed integer payload; ok is false if the kind differs.
func (v Value) AsInt() (int64, bool) {
	if v.kind != KindInt {
		return 0, false
	}
	return int64(v.num), true
}

// AsUint returns the unsigned integer payload; ok is false if the kind differs.
func (v Value) AsUint() (uint64, bool) {
	if v.kind != KindUint {
		return 0, false
	}
	return v.num, true
}

// AsFloat returns the float payload; ok is false if the kind differs.
func (v Value) AsFloat() (float64, bool) {
	if v.kind != KindFloat {
		return 0, false
	}
	return math.Float64frombits(v.num), true
}

// AsString returns the string payload; ok is false if the kind differs.
func (v Value) AsString() (string, bool) {
	if v.kind != KindString {
		return "", false
	}
	return v.str, true
}

// BytesView returns the octet payload without a copy; the caller must not
// modify the returned slice. Encoders use it to marshal bytes values
// allocation-free. ok is false if the kind differs.
func (v Value) BytesView() ([]byte, bool) {
	if v.kind != KindBytes {
		return nil, false
	}
	// The view aliases the octets v holds as an immutable string, so a
	// write through it would change every copy of v.
	return unsafe.Slice(unsafe.StringData(v.str), len(v.str)), true
}

// AsEnum returns the enum symbol; ok is false if the kind differs.
func (v Value) AsEnum() (string, bool) {
	if v.kind != KindEnum {
		return "", false
	}
	return v.str, true
}

// NumFields returns the number of record fields (0 for non-records).
func (v Value) NumFields() int { return len(v.fields()) }

// FieldAt returns the i'th record field.
func (v Value) FieldAt(i int) Field { return v.fields()[i] }

// FieldByName returns the named record field's value; ok is false if absent
// or if the value is not a record.
func (v Value) FieldByName(name string) (Value, bool) {
	if v.kind != KindRecord {
		return Value{}, false
	}
	for _, f := range v.fields() {
		if f.Name == name {
			return f.Value, true
		}
	}
	return Value{}, false
}

// Len returns the number of sequence elements (0 for non-sequences).
func (v Value) Len() int { return len(v.elems()) }

// ElemAt returns the i'th sequence element.
func (v Value) ElemAt(i int) Value { return v.elems()[i] }

// AsAny unwraps a dynamically-typed value; ok is false if the kind differs.
func (v Value) AsAny() (*DataType, Value, bool) {
	if v.kind != KindAny {
		return nil, Value{}, false
	}
	a := v.any()
	return a.typ, a.val, true
}

// Equal reports deep structural equality. Float NaN compares unequal to
// everything including itself, matching IEEE semantics.
func (v Value) Equal(w Value) bool {
	if v.kind != w.kind {
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindBool, KindInt, KindUint:
		return v.num == w.num
	case KindFloat:
		a, _ := v.AsFloat()
		b, _ := w.AsFloat()
		return a == b
	case KindString, KindEnum, KindBytes:
		return v.str == w.str
	case KindRecord:
		vf, wf := v.fields(), w.fields()
		if len(vf) != len(wf) {
			return false
		}
		for i := range vf {
			if vf[i].Name != wf[i].Name || !vf[i].Value.Equal(wf[i].Value) {
				return false
			}
		}
		return true
	case KindSeq:
		ve, we := v.elems(), w.elems()
		if len(ve) != len(we) {
			return false
		}
		for i := range ve {
			if !ve[i].Equal(we[i]) {
				return false
			}
		}
		return true
	case KindAny:
		va, wa := v.any(), w.any()
		return va.typ.Equal(wa.typ) && va.val.Equal(wa.val)
	}
	return false
}

// String renders the value in a compact human-readable notation used in
// logs, audit trails and error messages.
func (v Value) String() string {
	var sb strings.Builder
	v.format(&sb)
	return sb.String()
}

func (v Value) format(sb *strings.Builder) {
	switch v.kind {
	case KindNull:
		sb.WriteString("null")
	case KindBool:
		if v.num != 0 {
			sb.WriteString("true")
		} else {
			sb.WriteString("false")
		}
	case KindInt:
		sb.WriteString(strconv.FormatInt(int64(v.num), 10))
	case KindUint:
		sb.WriteString(strconv.FormatUint(v.num, 10))
		sb.WriteByte('u')
	case KindFloat:
		f, _ := v.AsFloat()
		sb.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
	case KindString:
		sb.WriteString(strconv.Quote(v.str))
	case KindBytes:
		sb.WriteString(fmt.Sprintf("0x%x", v.str))
	case KindEnum:
		sb.WriteByte('#')
		sb.WriteString(v.str)
	case KindRecord:
		sb.WriteByte('{')
		for i, f := range v.fields() {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(f.Name)
			sb.WriteString(": ")
			f.Value.format(sb)
		}
		sb.WriteByte('}')
	case KindSeq:
		sb.WriteByte('[')
		for i, e := range v.elems() {
			if i > 0 {
				sb.WriteString(", ")
			}
			e.format(sb)
		}
		sb.WriteByte(']')
	case KindAny:
		sb.WriteString("any<")
		a := v.any()
		sb.WriteString(a.typ.String())
		sb.WriteString(">(")
		a.val.format(sb)
		sb.WriteByte(')')
	}
}

// Compare orders two values of the same scalar kind: -1, 0 or +1.
// It returns ok=false for kinds without a total order (records, sequences,
// bytes, any, null) or mismatched kinds; the trader constraint language
// relies on this to reject ill-typed comparisons.
func Compare(a, b Value) (c int, ok bool) {
	if a.kind != b.kind {
		// Permit int/uint/float cross-comparison via float widening.
		af, aok := a.numeric()
		bf, bok := b.numeric()
		if aok && bok {
			return cmpFloat(af, bf), true
		}
		return 0, false
	}
	switch a.kind {
	case KindBool:
		return cmpUint(a.num, b.num), true
	case KindInt:
		ai, bi := int64(a.num), int64(b.num)
		switch {
		case ai < bi:
			return -1, true
		case ai > bi:
			return 1, true
		}
		return 0, true
	case KindUint:
		return cmpUint(a.num, b.num), true
	case KindFloat:
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		if math.IsNaN(af) || math.IsNaN(bf) {
			return 0, false
		}
		return cmpFloat(af, bf), true
	case KindString, KindEnum:
		return strings.Compare(a.str, b.str), true
	}
	return 0, false
}

func (v Value) numeric() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(int64(v.num)), true
	case KindUint:
		return float64(v.num), true
	case KindFloat:
		f, _ := v.AsFloat()
		return f, !math.IsNaN(f)
	}
	return 0, false
}

func cmpUint(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
