package values

import (
	"errors"
	"testing"
)

func dollars() *DataType { return TInt() }

func accountRecord() *DataType {
	return TRecord("Account",
		FT("balance", dollars()),
		FT("withdrawn_today", dollars()),
	)
}

func TestDataTypeEqual(t *testing.T) {
	tests := []struct {
		name string
		a, b *DataType
		want bool
	}{
		{"same-scalar", TInt(), TInt(), true},
		{"diff-scalar", TInt(), TUint(), false},
		{"enum-same", TEnum("E", "a", "b"), TEnum("F", "a", "b"), true}, // names ignored
		{"enum-order", TEnum("E", "a", "b"), TEnum("E", "b", "a"), false},
		{"enum-arity", TEnum("E", "a"), TEnum("E", "a", "b"), false},
		{"record-same", accountRecord(), accountRecord(), true},
		{"record-field-name", TRecord("R", FT("x", TInt())), TRecord("R", FT("y", TInt())), false},
		{"record-field-type", TRecord("R", FT("x", TInt())), TRecord("R", FT("x", TFloat())), false},
		{"record-arity", TRecord("R", FT("x", TInt())), TRecord("R"), false},
		{"seq-same", TSeq(TInt()), TSeq(TInt()), true},
		{"seq-diff", TSeq(TInt()), TSeq(TString()), false},
		{"nil-right", TInt(), nil, false},
		{"nil-both", nil, nil, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Equal(tt.b); got != tt.want {
				t.Errorf("Equal = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestAssignableTo(t *testing.T) {
	wide := TRecord("Wide", FT("a", TInt()), FT("b", TString()), FT("c", TBool()))
	narrow := TRecord("Narrow", FT("a", TInt()), FT("b", TString()))
	tests := []struct {
		name string
		a, b *DataType
		want bool
	}{
		{"scalar-exact", TInt(), TInt(), true},
		{"scalar-no-widening", TInt(), TFloat(), false},
		{"to-any", TInt(), TAny(), true},
		{"record-width", wide, narrow, true},
		{"record-width-reverse", narrow, wide, false},
		{"enum-subset", TEnum("E", "a"), TEnum("F", "a", "b"), true},
		{"enum-superset", TEnum("E", "a", "b"), TEnum("F", "a"), false},
		{"seq-covariant", TSeq(wide), TSeq(narrow), true},
		{"seq-not-contravariant", TSeq(narrow), TSeq(wide), false},
		{"record-depth", TRecord("R", FT("x", TEnum("E", "a"))), TRecord("R", FT("x", TEnum("E", "a", "b"))), true},
		{"nil", nil, TInt(), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.AssignableTo(tt.b); got != tt.want {
				t.Errorf("AssignableTo = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestAssignableToReflexive(t *testing.T) {
	for _, dt := range []*DataType{
		TBool(), TInt(), TUint(), TFloat(), TString(), TBytes(),
		TEnum("E", "x", "y"), accountRecord(), TSeq(accountRecord()), TAny(),
	} {
		if !dt.AssignableTo(dt) {
			t.Errorf("%s not assignable to itself", dt)
		}
	}
}

func TestCheck(t *testing.T) {
	acct := accountRecord()
	good := Record(F("balance", Int(100)), F("withdrawn_today", Int(0)))
	if err := acct.Check(good); err != nil {
		t.Errorf("Check(good) = %v", err)
	}
	tests := []struct {
		name string
		t    *DataType
		v    Value
	}{
		{"wrong-kind", TInt(), Str("x")},
		{"enum-bad-symbol", TEnum("E", "a", "b"), Enum("z")},
		{"record-arity", acct, Record(F("balance", Int(1)))},
		{"record-field-name", acct, Record(F("balance", Int(1)), F("oops", Int(0)))},
		{"record-field-type", acct, Record(F("balance", Int(1)), F("withdrawn_today", Str("x")))},
		{"seq-elem", TSeq(TInt()), Seq(Int(1), Str("x"))},
		{"any-expected", TAny(), Int(1)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.t.Check(tt.v)
			if err == nil {
				t.Fatal("Check should fail")
			}
			if !errors.Is(err, ErrTypeMismatch) {
				t.Errorf("error %v should wrap ErrTypeMismatch", err)
			}
		})
	}
	if err := TAny().Check(Any(TInt(), Int(1))); err != nil {
		t.Errorf("Check(any) = %v", err)
	}
	var nilT *DataType
	if err := nilT.Check(Int(1)); err == nil {
		t.Error("nil type Check should fail")
	}
}

func TestCheckEnumOK(t *testing.T) {
	e := TEnum("Result", "OK", "Error")
	if err := e.Check(Enum("Error")); err != nil {
		t.Errorf("Check = %v", err)
	}
}

func TestDataTypeString(t *testing.T) {
	tests := []struct {
		t    *DataType
		want string
	}{
		{TInt(), "int"},
		{TEnum("E", "a", "b"), "enum E{a,b}"},
		{TSeq(TString()), "seq<string>"},
		{TRecord("R", FT("x", TInt())), "record R{x: int}"},
		{TRecord("", FT("x", TInt()), FT("y", TBool())), "record{x: int, y: bool}"},
		{nil, "<nil>"},
	}
	for _, tt := range tests {
		if got := tt.t.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}
