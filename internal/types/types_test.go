package types

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/values"
)

// The Figure 3 fixture: BankTeller with BankManager and LoansOfficer
// subtypes, exactly as in the tutorial.

func dollars() *values.DataType { return values.TInt() }

func tellerType() *Interface {
	return OpInterface("BankTeller",
		Op("Deposit",
			Params(P("c", values.TString()), P("a", values.TString()), P("d", dollars())),
			Term("OK", P("new_balance", dollars())),
			Term("Error", P("reason", values.TString())),
		),
		Op("Withdraw",
			Params(P("c", values.TString()), P("a", values.TString()), P("d", dollars())),
			Term("OK", P("new_balance", dollars())),
			Term("NotToday", P("today", dollars()), P("daily_limit", dollars())),
			Term("Error", P("reason", values.TString())),
		),
	)
}

func managerType() *Interface {
	return Extend("BankManager", tellerType(),
		Op("CreateAccount",
			Params(P("c", values.TString())),
			Term("OK", P("a", values.TString())),
			Term("Error", P("reason", values.TString())),
		),
	)
}

func loansOfficerType() *Interface {
	return Extend("LoansOfficer", tellerType(),
		Op("ApproveLoan",
			Params(P("c", values.TString()), P("amount", dollars())),
			Term("OK"),
			Term("Error", P("reason", values.TString())),
		),
	)
}

func TestFigure3Subtyping(t *testing.T) {
	teller := tellerType()
	manager := managerType()
	loans := loansOfficerType()

	for _, it := range []*Interface{teller, manager, loans} {
		if err := it.Validate(); err != nil {
			t.Fatalf("Validate(%s): %v", it.Name, err)
		}
	}

	// "Either can substitute for a BankTeller."
	if err := Subtype(manager, teller); err != nil {
		t.Errorf("BankManager should be subtype of BankTeller: %v", err)
	}
	if err := Subtype(loans, teller); err != nil {
		t.Errorf("LoansOfficer should be subtype of BankTeller: %v", err)
	}
	// "Neither a BankTeller nor a LoansOfficer can replace a BankManager."
	if IsSubtype(teller, manager) {
		t.Error("BankTeller must not be subtype of BankManager")
	}
	if IsSubtype(loans, manager) {
		t.Error("LoansOfficer must not be subtype of BankManager")
	}
	// And symmetric checks for LoansOfficer.
	if IsSubtype(teller, loans) {
		t.Error("BankTeller must not be subtype of LoansOfficer")
	}
	if IsSubtype(manager, loans) {
		t.Error("BankManager must not be subtype of LoansOfficer")
	}
}

func TestSubtypeReflexive(t *testing.T) {
	for _, it := range []*Interface{tellerType(), managerType(), loansOfficerType()} {
		if err := Subtype(it, it); err != nil {
			t.Errorf("%s not subtype of itself: %v", it.Name, err)
		}
		if !Equal(it, it) {
			t.Errorf("%s not Equal to itself", it.Name)
		}
	}
}

func TestSubtypeTransitive(t *testing.T) {
	// manager ≤ teller and a further extension ≤ manager implies ≤ teller.
	regional := Extend("RegionalManager", managerType(),
		Announce("CloseBranch"),
	)
	if err := Subtype(regional, managerType()); err != nil {
		t.Fatalf("regional ≤ manager: %v", err)
	}
	if err := Subtype(regional, tellerType()); err != nil {
		t.Errorf("transitivity violated: %v", err)
	}
}

func TestSubtypeErrors(t *testing.T) {
	teller := tellerType()
	tests := []struct {
		name    string
		sub     *Interface
		super   *Interface
		errPart string
	}{
		{
			"missing-operation",
			OpInterface("T"),
			teller, "lacks operation",
		},
		{
			"kind-mismatch",
			StreamInterface("S"), teller, "is stream",
		},
		{
			"nil", nil, teller, "nil interface",
		},
		{
			"announcement-mismatch",
			OpInterface("T", Announce("Ping")),
			OpInterface("U", Op("Ping", nil, Term("OK"))),
			"announcement/interrogation mismatch",
		},
		{
			"param-arity",
			OpInterface("T", Op("Get", Params(P("a", values.TInt())), Term("OK"))),
			OpInterface("U", Op("Get", nil, Term("OK"))),
			"parameter arity",
		},
		{
			"param-contravariance",
			// sub accepts only enum{a}; super promises clients may pass enum{a,b}.
			OpInterface("T", Op("Get", Params(P("x", values.TEnum("E", "a"))), Term("OK"))),
			OpInterface("U", Op("Get", Params(P("x", values.TEnum("E", "a", "b"))), Term("OK"))),
			"contravariance violated",
		},
		{
			"extra-termination",
			OpInterface("T", Op("Get", nil, Term("OK"), Term("Surprise"))),
			OpInterface("U", Op("Get", nil, Term("OK"))),
			"not declared by supertype",
		},
		{
			"termination-result-arity",
			OpInterface("T", Op("Get", nil, Term("OK", P("x", values.TInt()), P("y", values.TInt())))),
			OpInterface("U", Op("Get", nil, Term("OK", P("x", values.TInt())))),
			"result arity",
		},
		{
			"termination-covariance",
			// sub returns enum{a,b}; super promised only enum{a}.
			OpInterface("T", Op("Get", nil, Term("OK", P("x", values.TEnum("E", "a", "b"))))),
			OpInterface("U", Op("Get", nil, Term("OK", P("x", values.TEnum("E", "a"))))),
			"covariance violated",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := Subtype(tt.sub, tt.super)
			if err == nil {
				t.Fatal("Subtype should fail")
			}
			if !errors.Is(err, ErrNotSubtype) {
				t.Errorf("error %v should wrap ErrNotSubtype", err)
			}
			if !strings.Contains(err.Error(), tt.errPart) {
				t.Errorf("error %q should mention %q", err, tt.errPart)
			}
			if IsSubtype(tt.sub, tt.super) {
				t.Error("IsSubtype disagrees with Subtype")
			}
		})
	}
}

// TestIsSubtypeNegativeAllocatesNothing: the boolean form stops at the
// first violated rule without formatting why, for one failing pair of each
// rule, while Subtype still explains the same pair.
func TestIsSubtypeNegativeAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		name       string
		sub, super *Interface
	}{
		{"missing-operation", OpInterface("T"), tellerType()},
		{"arity", OpInterface("T", Op("Get", Params(P("a", values.TInt())), Term("OK"))),
			OpInterface("U", Op("Get", nil, Term("OK")))},
		{"termination", OpInterface("T", Op("Get", nil, Term("OK"), Term("Surprise"))),
			OpInterface("U", Op("Get", nil, Term("OK")))},
		{"stream-direction", StreamInterface("S", FlowOf("video", Consumer, values.TBytes())),
			StreamInterface("U", FlowOf("video", Producer, values.TBytes()))},
		{"announcement", OpInterface("T", Op("Ping", nil, Term("OK"))), OpInterface("U", Announce("Ping"))},
		{"contravariance", OpInterface("T", Announce("Tell", P("n", values.TEnum("E", "a")))),
			OpInterface("U", Announce("Tell", P("n", values.TEnum("E", "a", "b"))))},
		{"covariance", OpInterface("T", Op("Get", nil, Term("OK", P("n", values.TEnum("E", "a", "b"))))),
			OpInterface("U", Op("Get", nil, Term("OK", P("n", values.TEnum("E", "a")))))},
		{"kind", StreamInterface("S"), OpInterface("U")},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := Subtype(c.sub, c.super); !errors.Is(err, ErrNotSubtype) || err == ErrNotSubtype {
				t.Fatalf("Subtype = %v, want an explained ErrNotSubtype", err)
			}
			if allocs := testing.AllocsPerRun(100, func() {
				if IsSubtype(c.sub, c.super) {
					t.Fatal("IsSubtype = true")
				}
			}); allocs != 0 {
				t.Errorf("IsSubtype allocates %v per negative answer, want 0", allocs)
			}
		})
	}
}

func TestStreamSubtyping(t *testing.T) {
	frame := values.TRecord("Frame", values.FT("seq", values.TUint()), values.FT("data", values.TBytes()))
	frameWide := values.TRecord("FrameWide",
		values.FT("seq", values.TUint()), values.FT("data", values.TBytes()), values.FT("ts", values.TUint()))

	av := StreamInterface("AV",
		FlowOf("video", Producer, frame),
		FlowOf("control", Consumer, frameWide),
	)
	if err := av.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Producer covariance: producing a wider frame is fine.
	sub := StreamInterface("AVPlus",
		FlowOf("video", Producer, frameWide),
		FlowOf("control", Consumer, frameWide),
		FlowOf("audio", Producer, frame),
	)
	if err := Subtype(sub, av); err != nil {
		t.Errorf("AVPlus should be subtype: %v", err)
	}
	// Consumer contravariance: consuming only the wide frame when super
	// promises clients may send narrow frames is not allowed.
	narrowControl := StreamInterface("AV2",
		FlowOf("video", Producer, frame),
		FlowOf("control", Consumer, frame),
	)
	bad := StreamInterface("Bad",
		FlowOf("video", Producer, frame),
		FlowOf("control", Consumer, frameWide),
	)
	if IsSubtype(bad, narrowControl) {
		// bad consumes frameWide; narrowControl clients send frame; frame is
		// not assignable to frameWide (missing ts), so this must fail.
		t.Error("consumer contravariance violated")
	}
	// Direction mismatch.
	flipped := StreamInterface("Flipped", FlowOf("video", Consumer, frame), FlowOf("control", Consumer, frameWide))
	if IsSubtype(flipped, av) {
		t.Error("direction mismatch must fail")
	}
	// Missing flow.
	missing := StreamInterface("Missing", FlowOf("video", Producer, frame))
	if IsSubtype(missing, av) {
		t.Error("missing flow must fail")
	}
}

// TestAnnouncementSubtyping: an announcement is substitutable only by an
// announcement, its parameters are contravariant like an interrogation's,
// and a subtype may add announcements beside the ones it inherits.
func TestAnnouncementSubtyping(t *testing.T) {
	narrow := values.TEnum("E", "a")
	wide := values.TEnum("E", "a", "b")
	notify := OpInterface("Notify", Announce("Tell", P("what", narrow)))
	if err := notify.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := Subtype(notify, notify); err != nil {
		t.Errorf("reflexivity: %v", err)
	}
	if err := Subtype(Extend("NotifyMore", notify, Announce("Reset")), notify); err != nil {
		t.Errorf("extension: %v", err)
	}
	// Accepting more than the supertype's clients send is fine; less is not.
	accepting := OpInterface("Accepting", Announce("Tell", P("what", wide)))
	if err := Subtype(accepting, notify); err != nil {
		t.Errorf("contravariance: %v", err)
	}
	if IsSubtype(notify, accepting) {
		t.Error("contravariance reverse must fail")
	}
	// An interrogation does not stand in for an announcement, nor the
	// reverse: the client either waits for a termination or it does not.
	asked := OpInterface("Asked", Op("Tell", Params(P("what", narrow)), Term("OK")))
	if IsSubtype(asked, notify) || IsSubtype(notify, asked) {
		t.Error("announcement/interrogation mismatch must fail")
	}
	if IsSubtype(OpInterface("Empty"), notify) {
		t.Error("missing announcement must fail")
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name string
		it   *Interface
	}{
		{"empty-name", &Interface{Kind: Operational}},
		{"unknown-kind", &Interface{Name: "X", Kind: InterfaceKind(9)}},
		{"operational-with-flows", &Interface{Name: "X", Kind: Operational, Flows: []Flow{{Name: "f", Direction: Producer, Elem: values.TInt()}}}},
		{"stream-with-ops", &Interface{Name: "X", Kind: Stream, Operations: []Operation{Announce("a")}}},
		{"zero-kind", &Interface{Name: "X"}},
		{"retired-kind-3", &Interface{Name: "X", Kind: InterfaceKind(3)}},
		{"dup-op", OpInterface("X", Announce("a"), Announce("a"))},
		{"unnamed-op", OpInterface("X", Announce(""))},
		{"dup-param", OpInterface("X", Announce("a", P("p", values.TInt()), P("p", values.TInt())))},
		{"unnamed-param", OpInterface("X", Announce("a", P("", values.TInt())))},
		{"nil-param-type", OpInterface("X", Announce("a", P("p", nil)))},
		{"dup-term", OpInterface("X", Op("a", nil, Term("T"), Term("T")))},
		{"unnamed-term", OpInterface("X", Op("a", nil, Term("")))},
		{"bad-term-result", OpInterface("X", Op("a", nil, Term("T", P("", values.TInt()))))},
		{"dup-flow", StreamInterface("X", FlowOf("f", Producer, values.TInt()), FlowOf("f", Consumer, values.TInt()))},
		{"unnamed-flow", StreamInterface("X", FlowOf("", Producer, values.TInt()))},
		{"bad-flow-dir", StreamInterface("X", Flow{Name: "f", Elem: values.TInt()})},
		{"nil-flow-elem", StreamInterface("X", Flow{Name: "f", Direction: Producer})},
		{"dup-term-result", OpInterface("X", Op("a", nil, Term("T", P("r", values.TInt()), P("r", values.TInt()))))},
		{"nil-term-result-type", OpInterface("X", Op("a", nil, Term("T", P("r", nil))))},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.it.Validate()
			if err == nil {
				t.Fatal("Validate should fail")
			}
			if !errors.Is(err, ErrBadInterface) {
				t.Errorf("error %v should wrap ErrBadInterface", err)
			}
		})
	}
}

func TestAccessors(t *testing.T) {
	teller := tellerType()
	if _, ok := teller.Operation("Withdraw"); !ok {
		t.Error("Operation(Withdraw) not found")
	}
	if _, ok := teller.Operation("Nope"); ok {
		t.Error("Operation(Nope) should not be found")
	}
	op, _ := teller.Operation("Withdraw")
	if term, ok := op.Termination("NotToday"); !ok || len(term.Results) != 2 {
		t.Errorf("Termination(NotToday) = %+v, %v", term, ok)
	}
	if _, ok := op.Termination("Nope"); ok {
		t.Error("Termination(Nope) should not be found")
	}
	if op.IsAnnouncement() {
		t.Error("Withdraw is not an announcement")
	}
	if !Announce("Ping").IsAnnouncement() {
		t.Error("Announce should produce an announcement")
	}
	st := StreamInterface("S", FlowOf("f", Producer, values.TInt()))
	if _, ok := st.Flow("f"); !ok {
		t.Error("Flow(f) not found")
	}
	if _, ok := st.Flow("g"); ok {
		t.Error("Flow(g) should not be found")
	}
}

func TestEnumStrings(t *testing.T) {
	if Operational.String() != "operational" || Stream.String() != "stream" {
		t.Error("InterfaceKind strings")
	}
	// Kind 3 named signal interfaces, which are gone.
	if got := InterfaceKind(3).String(); got != "interfacekind(3)" {
		t.Errorf("retired kind 3 = %q", got)
	}
	if InterfaceKind(9).String() == "" {
		t.Error("unknown kind string empty")
	}
	if Producer.String() != "producer" || Consumer.String() != "consumer" {
		t.Error("FlowDirection strings")
	}
	if FlowDirection(9).String() == "" {
		t.Error("unknown direction string empty")
	}
}

// TestOperationCheckArgs: the stub's argument check refuses a wrong arity
// and an ill-typed argument, naming the parameter.
func TestOperationCheckArgs(t *testing.T) {
	op, _ := tellerType().Operation("Deposit")
	if err := op.CheckArgs([]values.Value{values.Str("c"), values.Str("a"), values.Int(5)}); err != nil {
		t.Fatalf("well-typed args refused: %v", err)
	}
	if err := op.CheckArgs([]values.Value{values.Str("c")}); err == nil || !strings.Contains(err.Error(), "expects 3 args, got 1") {
		t.Fatalf("short arg list: %v", err)
	}
	if err := op.CheckArgs([]values.Value{values.Str("c"), values.Str("a"), values.Str("5")}); err == nil || !strings.Contains(err.Error(), `arg "d"`) {
		t.Fatalf("ill-typed arg: %v", err)
	}
}

// TestOperationCheckTermination: a result list is checked against the
// named termination — its existence, its arity and each result's type.
func TestOperationCheckTermination(t *testing.T) {
	op, _ := tellerType().Operation("Withdraw")
	if err := op.CheckTermination("NotToday", []values.Value{values.Int(1), values.Int(2)}); err != nil {
		t.Fatalf("well-typed termination refused: %v", err)
	}
	if err := op.CheckTermination("Overdrawn", nil); err == nil || !strings.Contains(err.Error(), `no termination "Overdrawn"`) {
		t.Fatalf("unknown termination: %v", err)
	}
	if err := op.CheckTermination("OK", nil); err == nil || !strings.Contains(err.Error(), "expects 1 results, got 0") {
		t.Fatalf("missing result: %v", err)
	}
	if err := op.CheckTermination("OK", []values.Value{values.Str("x")}); err == nil || !strings.Contains(err.Error(), `result "new_balance"`) {
		t.Fatalf("ill-typed result: %v", err)
	}
}
