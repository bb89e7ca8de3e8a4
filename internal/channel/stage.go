package channel

import (
	"sync"
	"sync/atomic"

	"repro/internal/naming"
	"repro/internal/wire"
)

// Direction distinguishes messages leaving this channel end from messages
// arriving at it.
type Direction int

// The two stage directions.
const (
	Outbound Direction = iota + 1
	Inbound
)

// String returns the lower-case name of the direction.
func (d Direction) String() string {
	if d == Outbound {
		return "outbound"
	}
	return "inbound"
}

// Stage is one configurable component of a channel end — a stub (when it
// uses application knowledge such as operation names) or a binder (when it
// only manages the binding). Stages may mutate the message; returning an
// error aborts the interaction. Return a *StageError to control the
// infrastructure code reported to the peer.
//
// Stages must be safe for concurrent use: one stage instance serves every
// interaction on its channel end.
type Stage interface {
	Process(dir Direction, m *wire.Message) error
}

// Locator resolves an interface's current location; it is the channel's
// window onto the relocator function. *relocator.Relocator implements it.
type Locator interface {
	Lookup(id naming.InterfaceID) (naming.InterfaceRef, error)
}

// LocationInvalidator is the optional Locator capability a caching
// locator exposes (*relocator.Cache implements it): drop the cached
// location for an interface. Bindings call it on staleness evidence — a
// server answering "no such interface", a dead endpoint — before
// re-resolving, so the refresh reaches the authority instead of
// re-reading the same stale cache line. It is how a cache learns of a
// move: nothing pushes one to it.
type LocationInvalidator interface {
	Invalidate(id naming.InterfaceID)
}

// ---------------------------------------------------------------------------
// Built-in stages

// AuditEntry is one record emitted by an AuditStage.
type AuditEntry struct {
	Direction   Direction
	Kind        wire.MsgKind
	Target      naming.InterfaceID
	Operation   string
	Termination string
	Seq         uint64
}

// AuditStage is the tutorial's example of a stub: "maintaining a log of
// operations for an audit trail" requires knowledge of application
// semantics (operation names), which is exactly what distinguishes a stub
// from a binder. Records are delivered to the Sink callback.
type AuditStage struct {
	Sink func(AuditEntry)
}

var _ Stage = (*AuditStage)(nil)

// Process records the interaction and passes it through unchanged.
func (s *AuditStage) Process(dir Direction, m *wire.Message) error {
	if s.Sink != nil {
		s.Sink(AuditEntry{
			Direction:   dir,
			Kind:        m.Kind,
			Target:      m.Target,
			Operation:   m.Operation,
			Termination: m.Termination,
			Seq:         m.Seq,
		})
	}
	return nil
}

// MemoryAudit is a Sink that retains entries in memory for tests and the
// audit repository function.
type MemoryAudit struct {
	mu      sync.Mutex
	entries []AuditEntry
}

// Record appends an entry; pass it as the AuditStage Sink.
func (a *MemoryAudit) Record(e AuditEntry) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.entries = append(a.entries, e)
}

// Entries returns a copy of the recorded entries.
func (a *MemoryAudit) Entries() []AuditEntry {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]AuditEntry, len(a.entries))
	copy(out, a.entries)
	return out
}

// CountingStage counts messages through the pipeline; used by benchmarks
// to model a minimal stage and by tests to observe pipeline traversal.
type CountingStage struct {
	OutMsgs atomic.Uint64
	InMsgs  atomic.Uint64
}

var _ Stage = (*CountingStage)(nil)

// Process counts the message and passes it through unchanged.
func (s *CountingStage) Process(dir Direction, m *wire.Message) error {
	if dir == Outbound {
		s.OutMsgs.Add(1)
	} else {
		s.InMsgs.Add(1)
	}
	return nil
}

// runStages applies each stage in order for outbound messages and in
// reverse order for inbound ones, mirroring how a layered channel is
// traversed in each direction.
func runStages(stages []Stage, dir Direction, m *wire.Message) error {
	if dir == Outbound {
		for _, s := range stages {
			if err := s.Process(dir, m); err != nil {
				return err
			}
		}
		return nil
	}
	for i := len(stages) - 1; i >= 0; i-- {
		if err := stages[i].Process(dir, m); err != nil {
			return err
		}
	}
	return nil
}
