// Package types implements RM-ODP computational interface types and the
// structural subtype relation of Section 5.1.1 (Figure 3) of the tutorial.
//
// RM-ODP interfaces are strongly typed and come in three forms:
//
//   - operational interfaces: named operations, each either an
//     interrogation (returns one of a set of named terminations carrying
//     results) or an announcement (returns nothing);
//   - stream interfaces: named flows of typed elements between producer
//     and consumer;
//   - signal interfaces: the low-level primitives underlying both, modelled
//     on the OSI service primitives REQUEST, INDICATE, RESPONSE, CONFIRM.
//
// Subtyping is structural and substitutable: a subtype can be used wherever
// a supertype is expected (a BankManager can serve as a BankTeller). The
// rules implemented by Subtype are the standard variance rules:
// parameters are contravariant, termination results are covariant, and a
// subtype may not introduce terminations the supertype's clients do not
// expect.
package types

import (
	"errors"
	"fmt"

	"repro/internal/values"
)

// ErrNotSubtype is wrapped by every Subtype failure, with details of the
// first violated rule.
var ErrNotSubtype = errors.New("types: not a subtype")

// ErrBadInterface is wrapped by Validate failures.
var ErrBadInterface = errors.New("types: invalid interface type")

// InterfaceKind distinguishes the three forms of computational interface.
type InterfaceKind int

// The three interface kinds of the computational viewpoint.
const (
	Operational InterfaceKind = iota + 1
	Stream
	Signal
)

// String returns the lower-case name of the kind.
func (k InterfaceKind) String() string {
	switch k {
	case Operational:
		return "operational"
	case Stream:
		return "stream"
	case Signal:
		return "signal"
	}
	return fmt.Sprintf("interfacekind(%d)", int(k))
}

// Parameter is a named, typed operation parameter or termination result.
type Parameter struct {
	Name string
	Type *values.DataType
}

// P is shorthand for constructing a Parameter.
func P(name string, t *values.DataType) Parameter { return Parameter{Name: name, Type: t} }

// Termination is one of the named outcomes of an interrogation, e.g.
// "OK(new_balance: Dollars)" or "NotToday(today, daily_limit: Dollars)".
type Termination struct {
	Name    string
	Results []Parameter
}

// Operation is a named operation of an operational interface. An operation
// with no terminations is an announcement (invoked without waiting for an
// outcome); an operation with one or more terminations is an interrogation.
type Operation struct {
	Name         string
	Params       []Parameter
	Terminations []Termination
}

// IsAnnouncement reports whether the operation returns no termination.
func (o Operation) IsAnnouncement() bool { return len(o.Terminations) == 0 }

// Termination returns the named termination, if declared.
func (o Operation) Termination(name string) (Termination, bool) {
	for _, t := range o.Terminations {
		if t.Name == name {
			return t, true
		}
	}
	return Termination{}, false
}

// CheckArgs reports whether args are a well-typed argument list for the
// operation: the stub's check, the same at the client and the server end.
func (o Operation) CheckArgs(args []values.Value) error {
	if len(args) != len(o.Params) {
		return fmt.Errorf("%s expects %d args, got %d", o.Name, len(o.Params), len(args))
	}
	for i, p := range o.Params {
		if err := p.Type.Check(args[i]); err != nil {
			return fmt.Errorf("%s arg %q: %v", o.Name, p.Name, err)
		}
	}
	return nil
}

// CheckTermination reports whether term is a declared termination of the
// operation and results are well typed for it.
func (o Operation) CheckTermination(term string, results []values.Value) error {
	t, ok := o.Termination(term)
	if !ok {
		return fmt.Errorf("%s has no termination %q", o.Name, term)
	}
	if len(results) != len(t.Results) {
		return fmt.Errorf("%s termination %q expects %d results, got %d", o.Name, term, len(t.Results), len(results))
	}
	for i, r := range t.Results {
		if err := r.Type.Check(results[i]); err != nil {
			return fmt.Errorf("%s termination %q result %q: %v", o.Name, term, r.Name, err)
		}
	}
	return nil
}

// FlowDirection states which side of a stream interface emits the flow.
type FlowDirection int

// Flow directions relative to the interface's owner: a Producer flow is
// emitted by the owner, a Consumer flow is absorbed by it.
const (
	Producer FlowDirection = iota + 1
	Consumer
)

// String returns the lower-case name of the direction.
func (d FlowDirection) String() string {
	switch d {
	case Producer:
		return "producer"
	case Consumer:
		return "consumer"
	}
	return fmt.Sprintf("flowdirection(%d)", int(d))
}

// Flow is one logically continuous stream of typed elements within a
// stream interface; several flows (e.g. audio plus video) can be grouped
// in one interface.
type Flow struct {
	Name      string
	Direction FlowDirection
	Elem      *values.DataType
}

// SignalPrimitive is one of the four OSI service primitives the tutorial
// cites as examples of signals.
type SignalPrimitive int

// The OSI service primitives.
const (
	Request SignalPrimitive = iota + 1
	Indicate
	Response
	Confirm
)

// String returns the upper-case OSI name of the primitive.
func (p SignalPrimitive) String() string {
	switch p {
	case Request:
		return "REQUEST"
	case Indicate:
		return "INDICATE"
	case Response:
		return "RESPONSE"
	case Confirm:
		return "CONFIRM"
	}
	return fmt.Sprintf("signalprimitive(%d)", int(p))
}

// Outgoing reports whether the primitive is emitted by the interface's
// owner (REQUEST, RESPONSE) rather than delivered to it (INDICATE, CONFIRM).
func (p SignalPrimitive) Outgoing() bool { return p == Request || p == Response }

// SignalDecl is one signal of a signal interface.
type SignalDecl struct {
	Name      string
	Primitive SignalPrimitive
	Params    []Parameter
}

// Interface is a computational interface type. Exactly one of the
// Operations, Flows or Signals sets is populated, according to Kind.
type Interface struct {
	Name       string
	Kind       InterfaceKind
	Operations []Operation
	Flows      []Flow
	Signals    []SignalDecl
}

// Operation returns the named operation, if declared.
func (it *Interface) Operation(name string) (Operation, bool) {
	for _, op := range it.Operations {
		if op.Name == name {
			return op, true
		}
	}
	return Operation{}, false
}

// Flow returns the named flow, if declared.
func (it *Interface) Flow(name string) (Flow, bool) {
	for _, f := range it.Flows {
		if f.Name == name {
			return f, true
		}
	}
	return Flow{}, false
}

// Signal returns the named signal, if declared.
func (it *Interface) Signal(name string) (SignalDecl, bool) {
	for _, s := range it.Signals {
		if s.Name == name {
			return s, true
		}
	}
	return SignalDecl{}, false
}

// Validate checks internal consistency: a known kind, members only of the
// matching sort, unique member names, unique termination names per
// operation, and non-nil types throughout.
func (it *Interface) Validate() error {
	if it.Name == "" {
		return fmt.Errorf("%w: empty interface name", ErrBadInterface)
	}
	switch it.Kind {
	case Operational:
		if len(it.Flows) != 0 || len(it.Signals) != 0 {
			return fmt.Errorf("%w: %s: operational interface with flows or signals", ErrBadInterface, it.Name)
		}
		seen := map[string]bool{}
		for _, op := range it.Operations {
			if op.Name == "" {
				return fmt.Errorf("%w: %s: unnamed operation", ErrBadInterface, it.Name)
			}
			if seen[op.Name] {
				return fmt.Errorf("%w: %s: duplicate operation %q", ErrBadInterface, it.Name, op.Name)
			}
			seen[op.Name] = true
			if err := validateParams(op.Params); err != nil {
				return fmt.Errorf("%w: %s.%s: %v", ErrBadInterface, it.Name, op.Name, err)
			}
			tseen := map[string]bool{}
			for _, term := range op.Terminations {
				if term.Name == "" {
					return fmt.Errorf("%w: %s.%s: unnamed termination", ErrBadInterface, it.Name, op.Name)
				}
				if tseen[term.Name] {
					return fmt.Errorf("%w: %s.%s: duplicate termination %q", ErrBadInterface, it.Name, op.Name, term.Name)
				}
				tseen[term.Name] = true
				if err := validateParams(term.Results); err != nil {
					return fmt.Errorf("%w: %s.%s returns %s: %v", ErrBadInterface, it.Name, op.Name, term.Name, err)
				}
			}
		}
	case Stream:
		if len(it.Operations) != 0 || len(it.Signals) != 0 {
			return fmt.Errorf("%w: %s: stream interface with operations or signals", ErrBadInterface, it.Name)
		}
		seen := map[string]bool{}
		for _, f := range it.Flows {
			if f.Name == "" {
				return fmt.Errorf("%w: %s: unnamed flow", ErrBadInterface, it.Name)
			}
			if seen[f.Name] {
				return fmt.Errorf("%w: %s: duplicate flow %q", ErrBadInterface, it.Name, f.Name)
			}
			seen[f.Name] = true
			if f.Direction != Producer && f.Direction != Consumer {
				return fmt.Errorf("%w: %s: flow %q has invalid direction", ErrBadInterface, it.Name, f.Name)
			}
			if f.Elem == nil {
				return fmt.Errorf("%w: %s: flow %q has nil element type", ErrBadInterface, it.Name, f.Name)
			}
		}
	case Signal:
		if len(it.Operations) != 0 || len(it.Flows) != 0 {
			return fmt.Errorf("%w: %s: signal interface with operations or flows", ErrBadInterface, it.Name)
		}
		seen := map[string]bool{}
		for _, s := range it.Signals {
			if s.Name == "" {
				return fmt.Errorf("%w: %s: unnamed signal", ErrBadInterface, it.Name)
			}
			if seen[s.Name] {
				return fmt.Errorf("%w: %s: duplicate signal %q", ErrBadInterface, it.Name, s.Name)
			}
			seen[s.Name] = true
			switch s.Primitive {
			case Request, Indicate, Response, Confirm:
			default:
				return fmt.Errorf("%w: %s: signal %q has invalid primitive", ErrBadInterface, it.Name, s.Name)
			}
			if err := validateParams(s.Params); err != nil {
				return fmt.Errorf("%w: %s!%s: %v", ErrBadInterface, it.Name, s.Name, err)
			}
		}
	default:
		return fmt.Errorf("%w: %s: unknown kind %v", ErrBadInterface, it.Name, it.Kind)
	}
	return nil
}

func validateParams(ps []Parameter) error {
	seen := map[string]bool{}
	for _, p := range ps {
		if p.Name == "" {
			return errors.New("unnamed parameter")
		}
		if seen[p.Name] {
			return fmt.Errorf("duplicate parameter %q", p.Name)
		}
		seen[p.Name] = true
		if p.Type == nil {
			return fmt.Errorf("parameter %q has nil type", p.Name)
		}
	}
	return nil
}

// Subtype reports whether sub is a structural subtype of super — i.e.
// whether an interface of type sub is substitutable wherever super is
// expected. On failure it returns an error wrapping ErrNotSubtype that
// explains the first violated rule.
//
// The rules:
//
//   - kinds must match;
//   - operational: sub must declare every operation of super, announcements
//     stay announcements, parameter lists have equal arity with
//     contravariant element types, and the terminations sub may produce for
//     a shared operation must be a subset of super's, with covariant
//     results (sub may also declare extra operations — width subtyping);
//   - stream: sub must declare every flow of super with the same direction;
//     producer flows are covariant, consumer flows contravariant;
//   - signal: sub must declare every signal of super with the same
//     primitive; outgoing signals are covariant, incoming contravariant.
func Subtype(sub, super *Interface) error { return subtype(sub, super, true) }

// subtype is the one walk of the rules for Subtype and IsSubtype. Only
// with explain does a violation format its explanation; without, the walk
// returns the bare ErrNotSubtype at the first violation, so a negative
// answer costs no allocation (the trader asks it of every registered type
// whenever it recomputes a subtype closure).
func subtype(sub, super *Interface, explain bool) error {
	if sub == nil || super == nil {
		return violated(explain, func() error { return fmt.Errorf("%w: nil interface", ErrNotSubtype) })
	}
	if sub.Kind != super.Kind {
		return violated(explain, func() error {
			return fmt.Errorf("%w: %s is %v, %s is %v", ErrNotSubtype, sub.Name, sub.Kind, super.Name, super.Kind)
		})
	}
	switch super.Kind {
	case Operational:
		for _, sop := range super.Operations {
			bop, ok := sub.Operation(sop.Name)
			if !ok {
				return violated(explain, func() error {
					return fmt.Errorf("%w: %s lacks operation %q required by %s",
						ErrNotSubtype, sub.Name, sop.Name, super.Name)
				})
			}
			if err := operationConforms(bop, sop, explain); err != nil {
				return violated(explain, func() error {
					return fmt.Errorf("%w: %s.%s: %v", ErrNotSubtype, sub.Name, sop.Name, err)
				})
			}
		}
	case Stream:
		for _, sf := range super.Flows {
			bf, ok := sub.Flow(sf.Name)
			if !ok {
				return violated(explain, func() error {
					return fmt.Errorf("%w: %s lacks flow %q required by %s",
						ErrNotSubtype, sub.Name, sf.Name, super.Name)
				})
			}
			if bf.Direction != sf.Direction {
				return violated(explain, func() error {
					return fmt.Errorf("%w: flow %q: direction %v, want %v",
						ErrNotSubtype, sf.Name, bf.Direction, sf.Direction)
				})
			}
			switch sf.Direction {
			case Producer: // sub produces: what it emits must fit what super promises
				if !bf.Elem.AssignableTo(sf.Elem) {
					return violated(explain, func() error {
						return fmt.Errorf("%w: producer flow %q: %s not assignable to %s",
							ErrNotSubtype, sf.Name, bf.Elem, sf.Elem)
					})
				}
			case Consumer: // sub consumes: it must accept everything super accepts
				if !sf.Elem.AssignableTo(bf.Elem) {
					return violated(explain, func() error {
						return fmt.Errorf("%w: consumer flow %q: %s not assignable to %s",
							ErrNotSubtype, sf.Name, sf.Elem, bf.Elem)
					})
				}
			}
		}
	case Signal:
		for _, ss := range super.Signals {
			bs, ok := sub.Signal(ss.Name)
			if !ok {
				return violated(explain, func() error {
					return fmt.Errorf("%w: %s lacks signal %q required by %s",
						ErrNotSubtype, sub.Name, ss.Name, super.Name)
				})
			}
			if bs.Primitive != ss.Primitive {
				return violated(explain, func() error {
					return fmt.Errorf("%w: signal %q: primitive %v, want %v",
						ErrNotSubtype, ss.Name, bs.Primitive, ss.Primitive)
				})
			}
			if len(bs.Params) != len(ss.Params) {
				return violated(explain, func() error {
					return fmt.Errorf("%w: signal %q: arity %d, want %d",
						ErrNotSubtype, ss.Name, len(bs.Params), len(ss.Params))
				})
			}
			for i := range ss.Params {
				if ss.Primitive.Outgoing() {
					if !bs.Params[i].Type.AssignableTo(ss.Params[i].Type) {
						return violated(explain, func() error {
							return fmt.Errorf("%w: signal %q param %q: covariance violated",
								ErrNotSubtype, ss.Name, ss.Params[i].Name)
						})
					}
				} else {
					if !ss.Params[i].Type.AssignableTo(bs.Params[i].Type) {
						return violated(explain, func() error {
							return fmt.Errorf("%w: signal %q param %q: contravariance violated",
								ErrNotSubtype, ss.Name, ss.Params[i].Name)
						})
					}
				}
			}
		}
	default:
		return violated(explain, func() error { return fmt.Errorf("%w: unknown kind %v", ErrNotSubtype, super.Kind) })
	}
	return nil
}

// violated is what a broken rule returns: with explain the error msg
// formats, without it the bare ErrNotSubtype.
func violated(explain bool, msg func() error) error {
	if !explain {
		return ErrNotSubtype
	}
	return msg()
}

func operationConforms(sub, super Operation, explain bool) error {
	if sub.IsAnnouncement() != super.IsAnnouncement() {
		return violated(explain, func() error { return errors.New("announcement/interrogation mismatch") })
	}
	if len(sub.Params) != len(super.Params) {
		return violated(explain, func() error {
			return fmt.Errorf("parameter arity %d, want %d", len(sub.Params), len(super.Params))
		})
	}
	// Contravariance: the subtype must accept every argument the supertype's
	// clients may pass, so super's parameter types must be assignable to sub's.
	for i := range super.Params {
		if !super.Params[i].Type.AssignableTo(sub.Params[i].Type) {
			return violated(explain, func() error {
				return fmt.Errorf("parameter %d (%q): contravariance violated: %s not assignable to %s",
					i, super.Params[i].Name, super.Params[i].Type, sub.Params[i].Type)
			})
		}
	}
	// Termination containment: anything sub can reply with must be expected
	// by super's clients.
	for _, bt := range sub.Terminations {
		st, ok := super.Termination(bt.Name)
		if !ok {
			return violated(explain, func() error { return fmt.Errorf("termination %q not declared by supertype", bt.Name) })
		}
		if len(bt.Results) != len(st.Results) {
			return violated(explain, func() error {
				return fmt.Errorf("termination %q: result arity %d, want %d",
					bt.Name, len(bt.Results), len(st.Results))
			})
		}
		// Covariance: what sub returns must fit what super promised.
		for i := range bt.Results {
			if !bt.Results[i].Type.AssignableTo(st.Results[i].Type) {
				return violated(explain, func() error {
					return fmt.Errorf("termination %q result %d (%q): covariance violated: %s not assignable to %s",
						bt.Name, i, st.Results[i].Name, bt.Results[i].Type, st.Results[i].Type)
				})
			}
		}
	}
	return nil
}

// IsSubtype is the boolean form of Subtype.
func IsSubtype(sub, super *Interface) bool { return subtype(sub, super, false) == nil }

// Equal reports whether two interface types are mutually substitutable.
func Equal(a, b *Interface) bool { return IsSubtype(a, b) && IsSubtype(b, a) }

// Complement returns the causal mirror of a stream interface: the type of
// the peer that would bind to it, with every flow's direction flipped
// (what one end produces the other consumes). Non-stream interfaces are
// returned unchanged; the receiver is never mutated.
func Complement(it *Interface) *Interface {
	if it == nil || it.Kind != Stream {
		return it
	}
	out := &Interface{Name: it.Name + "~", Kind: Stream, Flows: make([]Flow, len(it.Flows))}
	copy(out.Flows, it.Flows)
	for i := range out.Flows {
		switch out.Flows[i].Direction {
		case Producer:
			out.Flows[i].Direction = Consumer
		case Consumer:
			out.Flows[i].Direction = Producer
		}
	}
	return out
}

// FlowCausality checks that a stream binding on the named flow is causally
// well-formed: the producer's interface declares the flow as Producer (it
// emits), the consumer's declares it as Consumer (it absorbs), and every
// element the producer may emit is acceptable to the consumer (producer
// element type assignable to the consumer's — the covariance direction of
// the stream subtype rule, applied across the binding rather than down a
// type hierarchy). Either interface may be the same type at both ends; the
// check is then that the flow is declared with complementary readings.
func FlowCausality(producer, consumer *Interface, flow string) error {
	if producer == nil || consumer == nil {
		return fmt.Errorf("%w: nil interface", ErrBadInterface)
	}
	if producer.Kind != Stream {
		return fmt.Errorf("%w: %s: producer end is %v, not stream", ErrBadInterface, producer.Name, producer.Kind)
	}
	if consumer.Kind != Stream {
		return fmt.Errorf("%w: %s: consumer end is %v, not stream", ErrBadInterface, consumer.Name, consumer.Kind)
	}
	pf, ok := producer.Flow(flow)
	if !ok {
		return fmt.Errorf("%w: %s has no flow %q", ErrBadInterface, producer.Name, flow)
	}
	cf, ok := consumer.Flow(flow)
	if !ok {
		return fmt.Errorf("%w: %s has no flow %q", ErrBadInterface, consumer.Name, flow)
	}
	if pf.Direction != Producer {
		return fmt.Errorf("%w: flow %s.%s is declared %v at the producing end", ErrBadInterface, producer.Name, flow, pf.Direction)
	}
	if cf.Direction != Consumer {
		return fmt.Errorf("%w: flow %s.%s is declared %v at the consuming end", ErrBadInterface, consumer.Name, flow, cf.Direction)
	}
	if !pf.Elem.AssignableTo(cf.Elem) {
		return fmt.Errorf("%w: flow %q: produced element type %s not assignable to consumed %s",
			ErrBadInterface, flow, pf.Elem, cf.Elem)
	}
	return nil
}
