package values_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/values"
	"repro/internal/wire"
)

// refValue is the value model as it was laid out before the narrow Value:
// one field per payload, 120 bytes, composites as plain slices. It is kept,
// with its methods, as the reference TestValueMatchesReference and
// FuzzValue hold Value to.
type refValue struct {
	kind   values.Kind
	num    uint64 // bool / int / uint / float payload
	str    string // string payload or enum symbol
	bytes  []byte
	fields []refField // record members
	elems  []refValue // sequence elements
	anyTyp *values.DataType
	anyVal *refValue
}

type refField struct {
	Name  string
	Value refValue
}

func (v refValue) AsBool() (b, ok bool) {
	if v.kind != values.KindBool {
		return false, false
	}
	return v.num != 0, true
}

func (v refValue) AsInt() (int64, bool) {
	if v.kind != values.KindInt {
		return 0, false
	}
	return int64(v.num), true
}

func (v refValue) AsUint() (uint64, bool) {
	if v.kind != values.KindUint {
		return 0, false
	}
	return v.num, true
}

func (v refValue) AsFloat() (float64, bool) {
	if v.kind != values.KindFloat {
		return 0, false
	}
	return math.Float64frombits(v.num), true
}

func (v refValue) AsString() (string, bool) {
	if v.kind != values.KindString {
		return "", false
	}
	return v.str, true
}

func (v refValue) BytesView() ([]byte, bool) {
	if v.kind != values.KindBytes {
		return nil, false
	}
	return v.bytes, true
}

func (v refValue) AsEnum() (string, bool) {
	if v.kind != values.KindEnum {
		return "", false
	}
	return v.str, true
}

func (v refValue) NumFields() int { return len(v.fields) }

func (v refValue) FieldAt(i int) refField { return v.fields[i] }

func (v refValue) FieldByName(name string) (refValue, bool) {
	if v.kind != values.KindRecord {
		return refValue{}, false
	}
	for _, f := range v.fields {
		if f.Name == name {
			return f.Value, true
		}
	}
	return refValue{}, false
}

func (v refValue) Len() int { return len(v.elems) }

func (v refValue) ElemAt(i int) refValue { return v.elems[i] }

func (v refValue) AsAny() (*values.DataType, refValue, bool) {
	if v.kind != values.KindAny {
		return nil, refValue{}, false
	}
	return v.anyTyp, *v.anyVal, true
}

func (v refValue) Equal(w refValue) bool {
	if v.kind != w.kind {
		return false
	}
	switch v.kind {
	case values.KindNull:
		return true
	case values.KindBool, values.KindInt, values.KindUint:
		return v.num == w.num
	case values.KindFloat:
		a, _ := v.AsFloat()
		b, _ := w.AsFloat()
		return a == b
	case values.KindString, values.KindEnum:
		return v.str == w.str
	case values.KindBytes:
		if len(v.bytes) != len(w.bytes) {
			return false
		}
		for i := range v.bytes {
			if v.bytes[i] != w.bytes[i] {
				return false
			}
		}
		return true
	case values.KindRecord:
		if len(v.fields) != len(w.fields) {
			return false
		}
		for i := range v.fields {
			if v.fields[i].Name != w.fields[i].Name || !v.fields[i].Value.Equal(w.fields[i].Value) {
				return false
			}
		}
		return true
	case values.KindSeq:
		if len(v.elems) != len(w.elems) {
			return false
		}
		for i := range v.elems {
			if !v.elems[i].Equal(w.elems[i]) {
				return false
			}
		}
		return true
	case values.KindAny:
		return v.anyTyp.Equal(w.anyTyp) && v.anyVal.Equal(*w.anyVal)
	}
	return false
}

func (v refValue) String() string {
	var sb strings.Builder
	v.format(&sb)
	return sb.String()
}

func (v refValue) format(sb *strings.Builder) {
	switch v.kind {
	case values.KindNull:
		sb.WriteString("null")
	case values.KindBool:
		if v.num != 0 {
			sb.WriteString("true")
		} else {
			sb.WriteString("false")
		}
	case values.KindInt:
		sb.WriteString(strconv.FormatInt(int64(v.num), 10))
	case values.KindUint:
		sb.WriteString(strconv.FormatUint(v.num, 10))
		sb.WriteByte('u')
	case values.KindFloat:
		f, _ := v.AsFloat()
		sb.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
	case values.KindString:
		sb.WriteString(strconv.Quote(v.str))
	case values.KindBytes:
		sb.WriteString(fmt.Sprintf("0x%x", v.bytes))
	case values.KindEnum:
		sb.WriteByte('#')
		sb.WriteString(v.str)
	case values.KindRecord:
		sb.WriteByte('{')
		for i, f := range v.fields {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(f.Name)
			sb.WriteString(": ")
			f.Value.format(sb)
		}
		sb.WriteByte('}')
	case values.KindSeq:
		sb.WriteByte('[')
		for i, e := range v.elems {
			if i > 0 {
				sb.WriteString(", ")
			}
			e.format(sb)
		}
		sb.WriteByte(']')
	case values.KindAny:
		sb.WriteString("any<")
		sb.WriteString(v.anyTyp.String())
		sb.WriteString(">(")
		v.anyVal.format(sb)
		sb.WriteByte(')')
	}
}

func refCompare(a, b refValue) (c int, ok bool) {
	if a.kind != b.kind {
		af, aok := a.numeric()
		bf, bok := b.numeric()
		if aok && bok {
			return cmpFloat(af, bf), true
		}
		return 0, false
	}
	switch a.kind {
	case values.KindBool:
		return cmpUint(a.num, b.num), true
	case values.KindInt:
		ai, bi := int64(a.num), int64(b.num)
		switch {
		case ai < bi:
			return -1, true
		case ai > bi:
			return 1, true
		}
		return 0, true
	case values.KindUint:
		return cmpUint(a.num, b.num), true
	case values.KindFloat:
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		if math.IsNaN(af) || math.IsNaN(bf) {
			return 0, false
		}
		return cmpFloat(af, bf), true
	case values.KindString, values.KindEnum:
		return strings.Compare(a.str, b.str), true
	}
	return 0, false
}

func (v refValue) numeric() (float64, bool) {
	switch v.kind {
	case values.KindInt:
		return float64(int64(v.num)), true
	case values.KindUint:
		return float64(v.num), true
	case values.KindFloat:
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

// gen draws values from a small alphabet, so that two draws are often equal
// or differ in one place, over all 11 kinds nested to depth 4. It builds
// each value twice: as a Value through the public constructors — the
// copying ones and the *Owned ones alike — and as the reference.
type gen struct{ intn func(n int) int }

// seeded is the generator of TestValueMatchesReference.
func seeded(seed int64) gen { return gen{rand.New(rand.NewSource(seed)).Intn} }

// fromBytes is the generator of FuzzValue: each choice consumes one byte
// of data, and a spent input chooses 0 (a scalar, or an empty composite).
func fromBytes(data []byte) gen {
	return gen{func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}}
}

const maxDepth = 4

var fieldNames = []string{"a", "b", "c"}

func (g gen) value(depth int) (values.Value, refValue) {
	kinds := 8 // scalars: null … enum
	if depth < maxDepth {
		kinds = 11
	}
	switch k := values.Kind(g.intn(kinds)); k {
	case values.KindNull:
		return values.Null(), refValue{}
	case values.KindBool:
		b := g.intn(2) == 1
		r := refValue{kind: k}
		if b {
			r.num = 1
		}
		return values.Bool(b), r
	case values.KindInt:
		i := []int64{-1, 0, 1, math.MinInt64, math.MaxInt64}[g.intn(5)]
		return values.Int(i), refValue{kind: k, num: uint64(i)}
	case values.KindUint:
		u := []uint64{0, 1, math.MaxUint64}[g.intn(3)]
		return values.Uint(u), refValue{kind: k, num: u}
	case values.KindFloat:
		f := []float64{0, math.Copysign(0, -1), 1, 1.5, math.NaN(), math.Inf(-1)}[g.intn(6)]
		return values.Float(f), refValue{kind: k, num: math.Float64bits(f)}
	case values.KindString:
		s := []string{"", "a", "b", "é\x00"}[g.intn(4)]
		return values.Str(s), refValue{kind: k, str: s}
	case values.KindBytes:
		b := [][]byte{nil, {}, {0}, {1, 2}, {1, 2, 3, 4, 5}}[g.intn(5)]
		cp := make([]byte, len(b))
		copy(cp, b)
		return values.BytesVal(b), refValue{kind: k, bytes: cp}
	case values.KindEnum:
		s := []string{"", "A", "B"}[g.intn(3)]
		return values.Enum(s), refValue{kind: k, str: s}
	case values.KindRecord:
		n := g.intn(4)
		fs := make([]values.Field, n)
		rfs := make([]refField, n)
		for i := range fs {
			name := fieldNames[g.intn(len(fieldNames))]
			v, r := g.value(depth + 1)
			fs[i], rfs[i] = values.F(name, v), refField{name, r}
		}
		if g.intn(2) == 0 {
			return values.RecordOwned(fs), refValue{kind: k, fields: rfs}
		}
		return values.Record(fs...), refValue{kind: k, fields: rfs}
	case values.KindSeq:
		n := g.intn(4)
		es := make([]values.Value, n)
		res := make([]refValue, n)
		for i := range es {
			es[i], res[i] = g.value(depth + 1)
		}
		if g.intn(2) == 0 {
			return values.SeqOwned(es), refValue{kind: k, elems: res}
		}
		return values.Seq(es...), refValue{kind: k, elems: res}
	default: // KindAny
		v, r := g.value(depth + 1)
		var t *values.DataType
		switch g.intn(3) {
		case 1:
			t = values.TypeOf(v)
		case 2:
			t = values.TAny()
		}
		return values.Any(t, v), refValue{kind: k, anyTyp: t, anyVal: &r}
	}
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

func sameType(a, b *values.DataType) bool {
	return (a == nil) == (b == nil) && a.String() == b.String()
}

// agree checks every accessor of v, on every kind, against r.
func agree(t *testing.T, path string, v values.Value, r refValue) {
	t.Helper()
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("%s (%v): %s = %v, reference %v", path, r, what, got, want)
	}
	if v.Kind() != r.kind || v.IsNull() != (r.kind == values.KindNull) {
		fail("Kind", v.Kind(), r.kind)
	}
	if got, want := v.String(), r.String(); got != want {
		fail("String", got, want)
	}
	if b, ok := v.AsBool(); fmt.Sprint(b, ok) != fmt.Sprint(r.AsBool()) {
		fail("AsBool", fmt.Sprint(b, ok), fmt.Sprint(r.AsBool()))
	}
	if i, ok := v.AsInt(); fmt.Sprint(i, ok) != fmt.Sprint(r.AsInt()) {
		fail("AsInt", fmt.Sprint(i, ok), fmt.Sprint(r.AsInt()))
	}
	if u, ok := v.AsUint(); fmt.Sprint(u, ok) != fmt.Sprint(r.AsUint()) {
		fail("AsUint", fmt.Sprint(u, ok), fmt.Sprint(r.AsUint()))
	}
	f, ok := v.AsFloat()
	if rf, rok := r.AsFloat(); math.Float64bits(f) != math.Float64bits(rf) || ok != rok {
		fail("AsFloat", fmt.Sprint(f, ok), fmt.Sprint(rf, rok))
	}
	if s, ok := v.AsString(); fmt.Sprint(s, ok) != fmt.Sprint(r.AsString()) {
		fail("AsString", fmt.Sprint(s, ok), fmt.Sprint(r.AsString()))
	}
	if s, ok := v.AsEnum(); fmt.Sprint(s, ok) != fmt.Sprint(r.AsEnum()) {
		fail("AsEnum", fmt.Sprint(s, ok), fmt.Sprint(r.AsEnum()))
	}
	bv, ok := v.BytesView()
	if rbv, rok := r.BytesView(); !bytes.Equal(bv, rbv) || ok != rok {
		fail("BytesView", fmt.Sprint(bv, ok), fmt.Sprint(rbv, rok))
	}

	if got, want := v.NumFields(), r.NumFields(); got != want {
		fail("NumFields", got, want)
	}
	for i := 0; i < r.NumFields(); i++ {
		f, rf := v.FieldAt(i), r.FieldAt(i)
		if f.Name != rf.Name {
			fail(fmt.Sprintf("FieldAt(%d).Name", i), f.Name, rf.Name)
		}
		agree(t, fmt.Sprintf("%s.%d", path, i), f.Value, rf.Value)
	}
	if got, want := panics(func() { v.FieldAt(r.NumFields()) }), panics(func() { r.FieldAt(r.NumFields()) }); got != want {
		fail("FieldAt(NumFields) panics", got, want)
	}
	for _, name := range append(fieldNames, "z") {
		fv, ok := v.FieldByName(name)
		rv, rok := r.FieldByName(name)
		if ok != rok {
			fail("FieldByName("+name+")", ok, rok)
		}
		if !ok && !fv.IsNull() {
			fail("FieldByName("+name+") when absent", fv, "null")
		}
		if ok {
			agree(t, path+"."+name, fv, rv)
		}
	}

	if got, want := v.Len(), r.Len(); got != want {
		fail("Len", got, want)
	}
	for i := 0; i < r.Len(); i++ {
		agree(t, fmt.Sprintf("%s[%d]", path, i), v.ElemAt(i), r.ElemAt(i))
	}
	if got, want := panics(func() { v.ElemAt(r.Len()) }), panics(func() { r.ElemAt(r.Len()) }); got != want {
		fail("ElemAt(Len) panics", got, want)
	}

	typ, inner, ok := v.AsAny()
	rtyp, rinner, rok := r.AsAny()
	if ok != rok || !sameType(typ, rtyp) || (!ok && !inner.IsNull()) {
		fail("AsAny", fmt.Sprint(typ, inner, ok), fmt.Sprint(rtyp, rinner, rok))
	}
	if ok {
		agree(t, path+".any", inner, rinner)
	}
}

// pair checks the two-value operations, Equal and Compare, against the
// reference.
func pair(t *testing.T, v, w values.Value, r, s refValue) {
	t.Helper()
	if got, want := v.Equal(w), r.Equal(s); got != want {
		t.Fatalf("%v.Equal(%v) = %v, reference %v", r, s, got, want)
	}
	c, ok := values.Compare(v, w)
	if rc, rok := refCompare(r, s); c != rc || ok != rok {
		t.Fatalf("Compare(%v, %v) = %d %v, reference %d %v", r, s, c, ok, rc, rok)
	}
}

// roundTrip checks that v survives both codecs, on its own and as the
// argument of a message frame, as a value that still agrees with r.
func roundTrip(t *testing.T, v values.Value, r refValue) {
	t.Helper()
	for _, codec := range []wire.Codec{wire.Native, wire.Canonical} {
		name := fmt.Sprint("codec ", codec.ID())
		b, err := codec.AppendValue(nil, v)
		if err != nil {
			t.Fatalf("%s: encode %v: %v", name, r, err)
		}
		got, off, err := codec.ReadValue(b, 0)
		if err != nil || off != len(b) {
			t.Fatalf("%s: decode %v: at %d of %d: %v", name, r, off, len(b), err)
		}
		agree(t, name, got, r)

		frame, err := (&wire.Message{Kind: wire.Call, Operation: "op", Args: []values.Value{v, v}}).EncodeAppend(nil, codec)
		if err != nil {
			t.Fatalf("%s: encode frame of %v: %v", name, r, err)
		}
		m, err := wire.Decode(frame)
		if err != nil || len(m.Args) != 2 {
			t.Fatalf("%s: decode frame of %v: %v", name, r, err)
		}
		agree(t, name+" frame", m.Args[1], r)
		wire.PutMessage(m)
	}
}

// TestValueMatchesReference holds Value to the reference on seeded draws:
// every accessor of every draw, Equal and Compare on consecutive draws and
// on a draw against itself rebuilt, and both codecs' round trips.
func TestValueMatchesReference(t *testing.T) {
	seen := map[values.Kind]bool{}
	for seed := int64(1); seed <= 2000; seed++ {
		g := seeded(seed)
		v, r := g.value(0)
		w, s := g.value(0)
		again, _ := seeded(seed).value(0)
		seen[r.kind] = true
		agree(t, "v", v, r)
		pair(t, v, w, r, s)
		pair(t, v, again, r, r)
		pair(t, v, v, r, r)
		roundTrip(t, v, r)
	}
	if len(seen) != 11 {
		t.Fatalf("drew %d kinds at the top level, want all 11", len(seen))
	}
}

// FuzzValue is TestValueMatchesReference with the fuzzer choosing the
// generator's every draw.
func FuzzValue(f *testing.F) {
	for _, seed := range [][]byte{nil, {8, 3, 0, 9, 2, 1, 10, 4}, {9, 3, 8, 2, 5, 1, 7, 2, 6, 3}, {10, 1, 9, 2, 0, 2}} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fromBytes(data)
		v, r := g.value(0)
		w, s := g.value(0)
		agree(t, "v", v, r)
		pair(t, v, w, r, s)
		pair(t, v, v, r, r)
		roundTrip(t, v, r)
	})
}
