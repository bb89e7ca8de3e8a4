package types

import (
	"errors"
	"testing"

	"repro/internal/values"
)

func TestDataTypeValueRoundTrip(t *testing.T) {
	cases := []*values.DataType{
		values.TBool(),
		values.TInt(),
		values.TUint(),
		values.TFloat(),
		values.TString(),
		values.TBytes(),
		values.TAny(),
		values.TEnum("Result", "OK", "Error"),
		values.TSeq(values.TString()),
		values.TRecord("Account",
			values.FT("balance", values.TInt()),
			values.FT("history", values.TSeq(values.TRecord("Entry", values.FT("delta", values.TInt())))),
		),
		nil,
	}
	for _, dt := range cases {
		v := dataTypeToValue(dt)
		got, err := dataTypeFromValue(v)
		if err != nil {
			t.Fatalf("dataTypeFromValue(%s): %v", dt, err)
		}
		if dt == nil {
			if got != nil {
				t.Errorf("nil type round-trip = %v", got)
			}
			continue
		}
		if !got.Equal(dt) {
			t.Errorf("round trip: got %s, want %s", got, dt)
		}
		if got.Name != dt.Name {
			t.Errorf("name lost: got %q, want %q", got.Name, dt.Name)
		}
	}
}

func TestDataTypeFromValueErrors(t *testing.T) {
	bad := []values.Value{
		values.Int(1),
		values.Record(), // missing kind
		values.Record(values.F("kind", values.Str("x"))),
		values.Record(values.F("kind", values.Uint(200))),
		values.Record(values.F("kind", values.Uint(uint64(values.KindEnum)))),                                                    // enum missing symbols
		values.Record(values.F("kind", values.Uint(uint64(values.KindRecord)))),                                                  // record missing fields
		values.Record(values.F("kind", values.Uint(uint64(values.KindSeq)))),                                                     // seq missing elem
		values.Record(values.F("kind", values.Uint(uint64(values.KindEnum))), values.F("symbols", values.Seq(values.Int(1)))),    // symbol not string
		values.Record(values.F("kind", values.Uint(uint64(values.KindRecord))), values.F("fields", values.Seq(values.Record()))), // field missing name
	}
	for i, v := range bad {
		if _, err := dataTypeFromValue(v); err == nil {
			t.Errorf("case %d: expected error for %v", i, v)
		} else if !errors.Is(err, ErrBadTypeValue) {
			t.Errorf("case %d: error %v should wrap ErrBadTypeValue", i, err)
		}
	}
}

func TestInterfaceValueRoundTrip(t *testing.T) {
	cases := []*Interface{
		tellerType(),
		managerType(),
		loansOfficerType(),
		StreamInterface("AV",
			FlowOf("video", Producer, values.TBytes()),
			FlowOf("control", Consumer, values.TString()),
		),
		OpInterface("Notify", Announce("Tell", P("what", values.TString()))),
		OpInterface("Empty"),
	}
	for _, it := range cases {
		v := it.ToValue()
		if _, ok := v.FieldByName("signals"); ok {
			t.Errorf("%s: encoded with a signals field", it.Name)
		}
		got, err := InterfaceFromValue(v)
		if err != nil {
			t.Fatalf("InterfaceFromValue(%s): %v", it.Name, err)
		}
		if got.Name != it.Name || got.Kind != it.Kind {
			t.Errorf("identity lost: got %s/%v, want %s/%v", got.Name, got.Kind, it.Name, it.Kind)
		}
		// Mutual substitutability is the right equality for interface types.
		if !Equal(got, it) {
			t.Errorf("%s: decoded type not equal to original", it.Name)
		}
		if len(got.Operations) != len(it.Operations) || len(got.Flows) != len(it.Flows) {
			t.Errorf("%s: member counts differ", it.Name)
		}
	}
}

func TestInterfaceFromValueErrors(t *testing.T) {
	bad := []values.Value{
		values.Int(1),
		values.Record(), // missing name
		values.Record(values.F("name", values.Str("X"))),                                    // missing kind
		values.Record(values.F("name", values.Str("X")), values.F("kind", values.Str("s"))), // kind not uint
		values.Record(values.F("name", values.Str("X")), values.F("kind", values.Uint(99))), // invalid decoded interface
	}
	for i, v := range bad {
		if _, err := InterfaceFromValue(v); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestInterfaceFromValueValidates(t *testing.T) {
	// Encode a valid interface, then corrupt it into a duplicate-operation
	// interface; decoding must reject it.
	dup := values.Record(
		values.F("name", values.Str("X")),
		values.F("kind", values.Uint(uint64(Operational))),
		values.F("operations", values.Seq(
			values.Record(
				values.F("name", values.Str("a")),
				values.F("params", values.Seq()),
				values.F("terminations", values.Seq()),
			),
			values.Record(
				values.F("name", values.Str("a")),
				values.F("params", values.Seq()),
				values.F("terminations", values.Seq()),
			),
		)),
		values.F("flows", values.Seq()),
	)
	if _, err := InterfaceFromValue(dup); err == nil {
		t.Error("duplicate operations should be rejected at decode")
	}
}
