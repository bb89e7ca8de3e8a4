package typerepo

import (
	"context"
	"fmt"
	"time"

	"repro/internal/types"
	"repro/internal/values"
)

// carrier is whatever carries the proxy's calls to the repository: a
// *channel.Binding to the one node hosting it, or a
// *coordination.ReplicaGroup or *coordination.FailoverGroup of such
// bindings (or of in-process members). It is declared here, not
// imported, so typerepo stays a leaf package.
type carrier interface {
	Invoke(ctx context.Context, op string, args []values.Value) (string, []values.Value, error)
	Close() error
}

// Remote is the client proxy to a repository hosted elsewhere: a
// Repository whose every call is a Servant operation. Over a replica
// group, registrations run through the group's ticket-ordered fan-out
// (every member applies the same write stream in the same order) and
// reads come from one live member — the intended authority behind
// NewReplicated, whose gen-fenced local replicas serve the hot reads
// while the rare writes funnel through the group's total order.
type Remote struct {
	c carrier
	// read carries the operations that register nothing: the carrier's
	// InvokeRead when it has one, and its Invoke otherwise.
	read func(ctx context.Context, op string, args []values.Value) (string, []values.Value, error)
}

var _ Repository = (*Remote)(nil)

// NewRemote returns a proxy whose calls travel over c.
func NewRemote(c carrier) *Remote {
	r := &Remote{c: c, read: c.Invoke}
	if rd, ok := c.(interface {
		InvokeRead(ctx context.Context, op string, args []values.Value) (string, []values.Value, error)
	}); ok {
		r.read = rd.InvokeRead
	}
	return r
}

// Close releases the carrier.
func (r *Remote) Close() error { return r.c.Close() }

// callTimeout bounds every cross-process wait of the proxy (netchan's rule
// 1: use timeouts): its operations' signatures carry no context, and a
// partitioned repository host must not block them for ever. 30s is what
// odpnode -call, odpstat and odptrader's link contract allow a call.
const callTimeout = 30 * time.Second

// call carries one operation over invoke under callTimeout.
func call(invoke func(context.Context, string, []values.Value) (string, []values.Value, error), op string, args []values.Value) (string, []values.Value, error) {
	ctx, cancel := context.WithTimeout(context.TODO(), callTimeout)
	defer cancel()
	return invoke(ctx, op, args)
}

// reply decodes a call's outcome: the results on OK, and otherwise the
// sentinel condition the servant encoded in the termination, so
// errors.Is works across the boundary.
func reply(op, term string, res []values.Value, err error) ([]values.Value, error) {
	if err != nil {
		return nil, err
	}
	if term == "OK" {
		return res, nil
	}
	reason := "unknown"
	if len(res) == 1 {
		if s, ok := res[0].AsString(); ok {
			reason = s
		}
	}
	switch term {
	case "NotFound":
		return nil, fmt.Errorf("%w: %s", ErrNotFound, reason)
	case "Conflict":
		return nil, fmt.Errorf("%w: %s", ErrConflict, reason)
	}
	return nil, fmt.Errorf("typerepo: remote %s failed: %s", op, reason)
}

func (r *Remote) write(op string, args ...values.Value) error {
	term, res, err := call(r.c.Invoke, op, args)
	_, err = reply(op, term, res, err)
	return err
}

// query returns the single result every read operation answers with.
func (r *Remote) query(op string, args ...values.Value) (values.Value, error) {
	term, res, err := call(r.read, op, args)
	res, err = reply(op, term, res, err)
	if err != nil {
		return values.Value{}, err
	}
	if len(res) != 1 {
		return values.Value{}, fmt.Errorf("typerepo: remote %s returned %d results, want 1", op, len(res))
	}
	return res[0], nil
}

// names is query for the operations that answer with a list of type
// names.
func (r *Remote) names(op string, args ...values.Value) ([]string, error) {
	v, err := r.query(op, args...)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, v.Len())
	for i := 0; i < v.Len(); i++ {
		s, _ := v.ElemAt(i).AsString()
		out = append(out, s)
	}
	return out, nil
}

// RegisterInterface registers an interface type.
func (r *Remote) RegisterInterface(it *types.Interface) error {
	if it == nil {
		return fmt.Errorf("%w: nil interface", ErrBadType)
	}
	return r.write("RegisterInterface", it.ToValue())
}

// RegisterData registers a named data type.
func (r *Remote) RegisterData(name string, dt *values.DataType) error {
	if dt == nil {
		return fmt.Errorf("%w: nil data type", ErrBadType)
	}
	return r.write("RegisterData", values.Str(name), types.DataTypeToValue(dt))
}

// DeclareSubtype records a declared subtype edge.
func (r *Remote) DeclareSubtype(sub, super string) error {
	return r.write("DeclareSubtype", values.Str(sub), values.Str(super))
}

// Relate records a named relationship between two types.
func (r *Remote) Relate(relation, from, to string) error {
	return r.write("Relate", values.Str(relation), values.Str(from), values.Str(to))
}

// LookupInterface resolves an interface type.
func (r *Remote) LookupInterface(name string) (*types.Interface, error) {
	v, err := r.query("LookupInterface", values.Str(name))
	if err != nil {
		return nil, err
	}
	return types.InterfaceFromValue(v)
}

// LookupData resolves a data type.
func (r *Remote) LookupData(name string) (*values.DataType, error) {
	v, err := r.query("LookupData", values.Str(name))
	if err != nil {
		return nil, err
	}
	return types.DataTypeFromValue(v)
}

// IsSubtype asks for the substitutability verdict.
func (r *Remote) IsSubtype(sub, super string) (bool, error) {
	v, err := r.query("IsSubtype", values.Str(sub), values.Str(super))
	if err != nil {
		return false, err
	}
	ok, _ := v.AsBool()
	return ok, nil
}

// Interfaces enumerates the registered interface names.
func (r *Remote) Interfaces() []string {
	out, _ := r.names("Interfaces")
	return out
}

// Supertypes enumerates structural supertypes.
func (r *Remote) Supertypes(name string) ([]string, error) {
	return r.names("Supertypes", values.Str(name))
}

// Subtypes enumerates structural subtypes.
func (r *Remote) Subtypes(name string) ([]string, error) {
	return r.names("Subtypes", values.Str(name))
}

// DeclaredSupertypes enumerates declared supertypes.
func (r *Remote) DeclaredSupertypes(name string) []string {
	out, _ := r.names("DeclaredSupertypes", values.Str(name))
	return out
}

// Related enumerates relationship targets.
func (r *Remote) Related(relation, from string) []string {
	out, _ := r.names("Related", values.Str(relation), values.Str(from))
	return out
}

// Gen reads the generation fence (0 when the call fails). Members of a
// replica group apply the same sequenced write stream, so their
// generations agree once the group's Invoke has returned — which is
// exactly when a front-end's next read consults the fence.
func (r *Remote) Gen() uint64 {
	v, err := r.query("Gen")
	if err != nil {
		return 0
	}
	n, _ := v.AsInt()
	return uint64(n)
}
