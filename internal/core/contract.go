package core

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// ErrBadContract is wrapped by contract validation failures.
var ErrBadContract = errors.New("core: invalid environment contract")

// Transparency identifies one of the distribution transparencies of
// Section 9 of the tutorial.
type Transparency uint16

// The eight prescribed distribution transparencies. The set "is not
// intended to be complete, merely a starting point of common requirements"
// — additional transparencies can be defined as further bits.
const (
	Access Transparency = 1 << iota
	Location
	Relocation
	Migration
	Persistence
	Failure
	Replication
	Transaction
)

var transparencyNames = []struct {
	t    Transparency
	name string
}{
	{Access, "access"},
	{Location, "location"},
	{Relocation, "relocation"},
	{Migration, "migration"},
	{Persistence, "persistence"},
	{Failure, "failure"},
	{Replication, "replication"},
	{Transaction, "transaction"},
}

// AllTransparencies is the full prescribed set.
const AllTransparencies = Access | Location | Relocation | Migration |
	Persistence | Failure | Replication | Transaction

// TransparencySet is a set of required transparencies.
type TransparencySet uint16

// Has reports whether the set requires t.
func (s TransparencySet) Has(t Transparency) bool { return uint16(s)&uint16(t) != 0 }

// String lists the set's members, e.g. "access+relocation".
func (s TransparencySet) String() string {
	if s == 0 {
		return "none"
	}
	var parts []string
	for _, tn := range transparencyNames {
		if s.Has(tn.t) {
			parts = append(parts, tn.name)
		}
	}
	if extra := uint16(s) &^ uint16(AllTransparencies); extra != 0 {
		parts = append(parts, fmt.Sprintf("unknown(%#x)", extra))
	}
	return strings.Join(parts, "+")
}

// SecurityLevel states the security a binding requires, realised by
// package security ("the actual interactions must either be communicated
// over a secure network or employ end-to-end security checks" —
// Section 5.3).
type SecurityLevel int

// The security levels.
const (
	// SecurityNone requires no channel security.
	SecurityNone SecurityLevel = iota
	// SecurityAuthenticated requires authenticated, replay-protected
	// interactions.
	SecurityAuthenticated
	// SecurityAudited additionally requires an audit trail of operations.
	SecurityAudited
)

// String returns the level's name.
func (l SecurityLevel) String() string {
	switch l {
	case SecurityNone:
		return "none"
	case SecurityAuthenticated:
		return "authenticated"
	case SecurityAudited:
		return "audited"
	}
	return fmt.Sprintf("securitylevel(%d)", int(l))
}

// Contract is an environment contract (Section 5.3): the requirements a
// computational binding places on its engineering realisation, "expressed
// in high-level quality-of-service terms" rather than naming a particular
// network or mechanism.
type Contract struct {
	// Require lists the distribution transparencies the binding needs.
	Require TransparencySet
	// MaxLatency bounds the acceptable per-interaction latency (0 = none).
	MaxLatency time.Duration
	// MaxRetries bounds the retry budget used when Failure transparency is
	// required (default 3 when Failure is set and this is 0).
	MaxRetries int
	// Security states the required security level.
	Security SecurityLevel
	// Replicas states the required replication degree when Replication
	// transparency is set (default 3 when 0).
	Replicas int
}

// Validate checks internal consistency of the contract.
func (c Contract) Validate() error {
	if extra := uint16(c.Require) &^ uint16(AllTransparencies); extra != 0 {
		return fmt.Errorf("%w: unknown transparencies %#x", ErrBadContract, extra)
	}
	if c.MaxLatency < 0 {
		return fmt.Errorf("%w: negative latency bound", ErrBadContract)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("%w: negative retry budget", ErrBadContract)
	}
	if c.Replicas < 0 {
		return fmt.Errorf("%w: negative replica count", ErrBadContract)
	}
	if c.Replicas > 0 && !c.Require.Has(Replication) {
		return fmt.Errorf("%w: replicas set without replication transparency", ErrBadContract)
	}
	switch c.Security {
	case SecurityNone, SecurityAuthenticated, SecurityAudited:
	default:
		return fmt.Errorf("%w: unknown security level %d", ErrBadContract, c.Security)
	}
	return nil
}

// EffectiveRetries returns the retry budget implied by the contract.
func (c Contract) EffectiveRetries() int {
	if !c.Require.Has(Failure) {
		return 0
	}
	if c.MaxRetries == 0 {
		return 3
	}
	return c.MaxRetries
}

// EffectiveReplicas returns the replication degree implied by the contract.
func (c Contract) EffectiveReplicas() int {
	if !c.Require.Has(Replication) {
		return 1
	}
	if c.Replicas == 0 {
		return 3
	}
	return c.Replicas
}
