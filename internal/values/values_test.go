package values

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{KindNull, "null"},
		{KindBool, "bool"},
		{KindInt, "int"},
		{KindUint, "uint"},
		{KindFloat, "float"},
		{KindString, "string"},
		{KindBytes, "bytes"},
		{KindEnum, "enum"},
		{KindRecord, "record"},
		{KindSeq, "seq"},
		{KindAny, "any"},
		{Kind(99), "kind(99)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(tt.k), got, tt.want)
		}
	}
	if Kind(99).Valid() {
		t.Error("Kind(99).Valid() = true, want false")
	}
	if !KindRecord.Valid() {
		t.Error("KindRecord.Valid() = false, want true")
	}
}

func TestScalarAccessors(t *testing.T) {
	if b, ok := Bool(true).AsBool(); !ok || !b {
		t.Errorf("Bool(true).AsBool() = %v, %v", b, ok)
	}
	if i, ok := Int(-42).AsInt(); !ok || i != -42 {
		t.Errorf("Int(-42).AsInt() = %v, %v", i, ok)
	}
	if u, ok := Uint(42).AsUint(); !ok || u != 42 {
		t.Errorf("Uint(42).AsUint() = %v, %v", u, ok)
	}
	if f, ok := Float(2.5).AsFloat(); !ok || f != 2.5 {
		t.Errorf("Float(2.5).AsFloat() = %v, %v", f, ok)
	}
	if s, ok := Str("x").AsString(); !ok || s != "x" {
		t.Errorf("Str(x).AsString() = %v, %v", s, ok)
	}
	if e, ok := Enum("OK").AsEnum(); !ok || e != "OK" {
		t.Errorf("Enum(OK).AsEnum() = %v, %v", e, ok)
	}
	if b, ok := BytesVal([]byte{1, 2}).BytesView(); !ok || len(b) != 2 {
		t.Errorf("BytesVal.BytesView() = %v, %v", b, ok)
	}
}

func TestAccessorKindMismatch(t *testing.T) {
	v := Str("hello")
	if _, ok := v.AsBool(); ok {
		t.Error("AsBool on string should fail")
	}
	if _, ok := v.AsInt(); ok {
		t.Error("AsInt on string should fail")
	}
	if _, ok := v.AsUint(); ok {
		t.Error("AsUint on string should fail")
	}
	if _, ok := v.AsFloat(); ok {
		t.Error("AsFloat on string should fail")
	}
	if _, ok := v.BytesView(); ok {
		t.Error("BytesView on string should fail")
	}
	if _, ok := v.AsEnum(); ok {
		t.Error("AsEnum on string should fail")
	}
	if _, ok := Int(1).AsString(); ok {
		t.Error("AsString on int should fail")
	}
	if _, _, ok := v.AsAny(); ok {
		t.Error("AsAny on string should fail")
	}
	// A composite's length shares the scalar slot, so the length
	// accessors must look at the kind first.
	if n := Int(5).Len(); n != 0 {
		t.Errorf("Int(5).Len() = %d, want 0", n)
	}
	if n := Uint(3).NumFields(); n != 0 {
		t.Errorf("Uint(3).NumFields() = %d, want 0", n)
	}
}

// TestValueWidth pins the narrow layout: every argument, result, record
// field and offer copies a Value.
func TestValueWidth(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 40 {
		t.Errorf("Value is %d bytes, want 40", got)
	}
	if got := unsafe.Sizeof(Field{}); got != 56 {
		t.Errorf("Field is %d bytes, want 56", got)
	}
}

func TestNull(t *testing.T) {
	var zero Value
	if !zero.IsNull() {
		t.Error("zero Value should be null")
	}
	if !Null().Equal(zero) {
		t.Error("Null() should equal zero Value")
	}
	if zero.String() != "null" {
		t.Errorf("zero.String() = %q", zero.String())
	}
}

func TestBytesCopiedOnConstruction(t *testing.T) {
	src := []byte{1, 2, 3}
	v := BytesVal(src)
	src[0] = 9
	if got, _ := v.BytesView(); got[0] != 1 {
		t.Error("BytesVal must copy its input")
	}
}

func TestRecordFields(t *testing.T) {
	v := Record(F("a", Int(1)), F("b", Str("two")))
	if v.NumFields() != 2 {
		t.Fatalf("NumFields = %d", v.NumFields())
	}
	if f := v.FieldAt(0); f.Name != "a" {
		t.Errorf("FieldAt(0).Name = %q", f.Name)
	}
	if got, ok := v.FieldByName("b"); !ok || !got.Equal(Str("two")) {
		t.Errorf("FieldByName(b) = %v, %v", got, ok)
	}
	if _, ok := v.FieldByName("missing"); ok {
		t.Error("FieldByName(missing) should fail")
	}
	if _, ok := Int(1).FieldByName("a"); ok {
		t.Error("FieldByName on non-record should fail")
	}
}

func TestSeq(t *testing.T) {
	v := Seq(Int(1), Int(2), Int(3))
	if v.Len() != 3 {
		t.Fatalf("Len = %d", v.Len())
	}
	if !v.ElemAt(1).Equal(Int(2)) {
		t.Errorf("ElemAt(1) = %v", v.ElemAt(1))
	}
}

func TestAny(t *testing.T) {
	v := Any(TInt(), Int(7))
	ty, inner, ok := v.AsAny()
	if !ok || ty.Kind != KindInt || !inner.Equal(Int(7)) {
		t.Errorf("AsAny = %v, %v, %v", ty, inner, ok)
	}
}

func TestEqual(t *testing.T) {
	tests := []struct {
		name string
		a, b Value
		want bool
	}{
		{"null=null", Null(), Null(), true},
		{"bool", Bool(true), Bool(true), true},
		{"bool-diff", Bool(true), Bool(false), false},
		{"int", Int(5), Int(5), true},
		{"int-diff", Int(5), Int(6), false},
		{"kind-diff", Int(5), Uint(5), false},
		{"float", Float(1.5), Float(1.5), true},
		{"float-nan", Float(math.NaN()), Float(math.NaN()), false},
		{"string", Str("a"), Str("a"), true},
		{"enum-vs-string", Enum("a"), Str("a"), false},
		{"bytes", BytesVal([]byte{1}), BytesVal([]byte{1}), true},
		{"bytes-diff-len", BytesVal([]byte{1}), BytesVal([]byte{1, 2}), false},
		{"bytes-diff", BytesVal([]byte{1}), BytesVal([]byte{2}), false},
		{"record", Record(F("a", Int(1))), Record(F("a", Int(1))), true},
		{"record-name", Record(F("a", Int(1))), Record(F("b", Int(1))), false},
		{"record-value", Record(F("a", Int(1))), Record(F("a", Int(2))), false},
		{"record-arity", Record(F("a", Int(1))), Record(), false},
		{"seq", Seq(Int(1), Int(2)), Seq(Int(1), Int(2)), true},
		{"seq-order", Seq(Int(1), Int(2)), Seq(Int(2), Int(1)), false},
		{"seq-len", Seq(Int(1)), Seq(Int(1), Int(2)), false},
		{"any", Any(TInt(), Int(1)), Any(TInt(), Int(1)), true},
		{"any-type-diff", Any(TInt(), Int(1)), Any(TUint(), Int(1)), false},
		{"nested", Record(F("xs", Seq(Str("p")))), Record(F("xs", Seq(Str("p")))), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Equal(tt.b); got != tt.want {
				t.Errorf("%v.Equal(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
			if got := tt.b.Equal(tt.a); got != tt.want {
				t.Errorf("symmetry: %v.Equal(%v) = %v, want %v", tt.b, tt.a, got, tt.want)
			}
		})
	}
}

func TestString(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Int(-3), "-3"},
		{Uint(3), "3u"},
		{Float(1.5), "1.5"},
		{Str("hi"), `"hi"`},
		{Enum("OK"), "#OK"},
		{BytesVal([]byte{0xab}), "0xab"},
		{Seq(Int(1), Int(2)), "[1, 2]"},
		{Record(F("a", Int(1)), F("b", Str("x"))), `{a: 1, b: "x"}`},
		{Any(TInt(), Int(4)), "any<int>(4)"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestCompare(t *testing.T) {
	tests := []struct {
		name   string
		a, b   Value
		want   int
		wantOK bool
	}{
		{"int<", Int(1), Int(2), -1, true},
		{"int>", Int(2), Int(1), 1, true},
		{"int=", Int(2), Int(2), 0, true},
		{"int-negative", Int(-5), Int(3), -1, true},
		{"uint", Uint(9), Uint(10), -1, true},
		{"float", Float(1.5), Float(1.4), 1, true},
		{"float-nan", Float(math.NaN()), Float(1), 0, false},
		{"string", Str("a"), Str("b"), -1, true},
		{"enum", Enum("A"), Enum("A"), 0, true},
		{"bool", Bool(false), Bool(true), -1, true},
		{"cross-int-float", Int(2), Float(2.5), -1, true},
		{"cross-uint-int", Uint(3), Int(4), -1, true},
		{"record-unordered", Record(), Record(), 0, false},
		{"mismatch", Int(1), Str("1"), 0, false},
		{"null", Null(), Null(), 0, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, ok := Compare(tt.a, tt.b)
			if ok != tt.wantOK || got != tt.want {
				t.Errorf("Compare(%v, %v) = %d, %v; want %d, %v", tt.a, tt.b, got, ok, tt.want, tt.wantOK)
			}
		})
	}
}

// randomValue generates a random value of bounded depth for property tests.
func randomValue(r *rand.Rand, depth int) Value {
	max := 8
	if depth <= 0 {
		max = 6 // scalars only
	}
	switch r.Intn(max) {
	case 0:
		return Bool(r.Intn(2) == 0)
	case 1:
		return Int(r.Int63() - r.Int63())
	case 2:
		return Uint(r.Uint64())
	case 3:
		return Float(r.NormFloat64())
	case 4:
		return Str(randomString(r))
	case 5:
		b := make([]byte, r.Intn(16))
		r.Read(b)
		return BytesVal(b)
	case 6:
		n := r.Intn(4)
		fields := make([]Field, n)
		for i := range fields {
			fields[i] = F(string(rune('a'+i)), randomValue(r, depth-1))
		}
		return Record(fields...)
	default:
		n := r.Intn(4)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = randomValue(r, depth-1)
		}
		return Seq(elems...)
	}
}

func randomString(r *rand.Rand) string {
	var sb strings.Builder
	for i, n := 0, r.Intn(12); i < n; i++ {
		sb.WriteRune(rune('a' + r.Intn(26)))
	}
	return sb.String()
}

func TestEqualReflexiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 3)
		// NaN-containing floats are legitimately irreflexive; skip them.
		if fl, ok := v.AsFloat(); ok && math.IsNaN(fl) {
			return true
		}
		return v.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCompareAntisymmetricProperty(t *testing.T) {
	f := func(a, b int64) bool {
		ca, ok1 := Compare(Int(a), Int(b))
		cb, ok2 := Compare(Int(b), Int(a))
		return ok1 && ok2 && ca == -cb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
