// Package security implements the ODP security functions of Section 8.4
// of the tutorial — access control, authentication and auditing — in the
// form the engineering viewpoint needs them: as channel components.
//
// Authentication uses shared-secret HMAC credentials. The client end's
// SignStage (a binder: no application semantics needed) attaches a
// credential covering the message's identity-relevant header fields; the
// server end's VerifyStage checks the credential against its Realm and
// then enforces the access-control Policy. Together with the channel's
// replay guard (sequence numbers in the binder, Section 6.1) this defends
// against the tutorial's example threat of "capturing and replaying
// operations".
package security

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/channel"
	"repro/internal/wire"
)

// ErrBadCredential is returned when a credential cannot even be parsed;
// verification failures and policy denials surface to peers as
// channel.CodeAuth errors with audit Decisions recording the reason.
var ErrBadCredential = errors.New("security: malformed credential")

const macSize = sha256.Size

// Realm holds the shared secrets of a security domain's principals.
type Realm struct {
	mu      sync.RWMutex
	secrets map[string][]byte
}

// NewRealm returns an empty realm.
func NewRealm() *Realm {
	return &Realm{secrets: make(map[string][]byte)}
}

// AddPrincipal registers (or rotates) a principal's secret.
func (r *Realm) AddPrincipal(name string, secret []byte) {
	cp := make([]byte, len(secret))
	copy(cp, secret)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.secrets[name] = cp
}

// RemovePrincipal revokes a principal.
func (r *Realm) RemovePrincipal(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.secrets, name)
}

func (r *Realm) secret(name string) ([]byte, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.secrets[name]
	return s, ok
}

// mac computes the credential MAC over the fields that identify an
// interaction: principal, target interface, operation, binding, sequence
// and correlation. Covering seq and correlation ties the credential to
// one transmission, so a captured credential cannot authenticate a
// different (or replayed-with-new-seq) message.
func computeMAC(secret []byte, principal string, m *wire.Message) []byte {
	h := hmac.New(sha256.New, secret)
	h.Write([]byte(principal))
	h.Write([]byte{0})
	h.Write([]byte(m.Target.String()))
	h.Write([]byte{0})
	h.Write([]byte(m.Operation))
	h.Write([]byte{0})
	var buf [8 * 3]byte
	binary.BigEndian.PutUint64(buf[0:], m.BindingID)
	binary.BigEndian.PutUint64(buf[8:], m.Seq)
	binary.BigEndian.PutUint64(buf[16:], m.Correlation)
	h.Write(buf[:])
	return h.Sum(nil)
}

func encodeCredential(principal string, mac []byte) []byte {
	out := make([]byte, 2+len(principal)+len(mac))
	binary.BigEndian.PutUint16(out, uint16(len(principal)))
	copy(out[2:], principal)
	copy(out[2+len(principal):], mac)
	return out
}

func decodeCredential(auth []byte) (principal string, mac []byte, err error) {
	if len(auth) < 2 {
		return "", nil, ErrBadCredential
	}
	n := int(binary.BigEndian.Uint16(auth))
	if len(auth) != 2+n+macSize {
		return "", nil, ErrBadCredential
	}
	return string(auth[2 : 2+n]), auth[2+n:], nil
}

// SignStage is the client-side authentication binder: it attaches the
// principal's credential to every outbound request.
type SignStage struct {
	Principal string
	Secret    []byte
}

var _ channel.Stage = (*SignStage)(nil)

// Process signs outbound requests; replies pass through.
func (s *SignStage) Process(dir channel.Direction, m *wire.Message) error {
	if dir != channel.Outbound {
		return nil
	}
	switch m.Kind {
	case wire.Call, wire.OneWay, wire.FlowMsg:
		m.Auth = encodeCredential(s.Principal, computeMAC(s.Secret, s.Principal, m))
	}
	return nil
}

// Decision is one audit record from a VerifyStage.
type Decision struct {
	Principal string
	Operation string
	Allowed   bool
	Reason    string
}

// VerifyStage is the server-side authentication and access-control
// component: it verifies inbound credentials against the realm and
// enforces the policy, emitting an audit Decision for every check.
type VerifyStage struct {
	Realm  *Realm
	Policy *Policy
	// Audit, when set, receives every access decision (the security
	// auditing function).
	Audit func(Decision)
}

var _ channel.Stage = (*VerifyStage)(nil)

// Process verifies inbound requests; outbound replies pass through.
func (s *VerifyStage) Process(dir channel.Direction, m *wire.Message) error {
	if dir != channel.Inbound {
		return nil
	}
	switch m.Kind {
	case wire.Call, wire.OneWay, wire.FlowMsg:
	default:
		return nil
	}
	decision, err := s.check(m)
	if s.Audit != nil {
		s.Audit(decision)
	}
	return err
}

func (s *VerifyStage) check(m *wire.Message) (Decision, error) {
	d := Decision{Operation: m.Operation}
	principal, mac, err := decodeCredential(m.Auth)
	if err != nil {
		d.Reason = "malformed credential"
		return d, &channel.StageError{Code: channel.CodeAuth, Detail: d.Reason}
	}
	d.Principal = principal
	secret, ok := s.Realm.secret(principal)
	if !ok {
		d.Reason = "unknown principal"
		return d, &channel.StageError{Code: channel.CodeAuth, Detail: d.Reason}
	}
	want := computeMAC(secret, principal, m)
	if !hmac.Equal(mac, want) {
		d.Reason = "bad credential"
		return d, &channel.StageError{Code: channel.CodeAuth, Detail: d.Reason}
	}
	if s.Policy != nil && !s.Policy.Allowed(principal, m.Operation) {
		d.Reason = "denied by policy"
		return d, &channel.StageError{Code: channel.CodeAuth, Detail: fmt.Sprintf("%s may not call %s", principal, m.Operation)}
	}
	d.Allowed = true
	return d, nil
}

// Policy is the access-control function: which principals may invoke
// which operations. The zero policy denies everything; Allow grants
// per-operation or wildcard ("*") rights.
type Policy struct {
	mu    sync.RWMutex
	rules map[string]map[string]bool
}

// NewPolicy returns an empty (deny-all) policy.
func NewPolicy() *Policy {
	return &Policy{rules: make(map[string]map[string]bool)}
}

// Allow grants principal the right to invoke op ("*" for all operations).
func (p *Policy) Allow(principal, op string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ops, ok := p.rules[principal]
	if !ok {
		ops = make(map[string]bool)
		p.rules[principal] = ops
	}
	ops[op] = true
}

// Revoke withdraws a previously granted right.
func (p *Policy) Revoke(principal, op string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ops, ok := p.rules[principal]; ok {
		delete(ops, op)
	}
}

// Allowed reports whether principal may invoke op.
func (p *Policy) Allowed(principal, op string) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	ops, ok := p.rules[principal]
	if !ok {
		return false
	}
	return ops[op] || ops["*"]
}

// AuditLog is a concurrency-safe sink for access decisions.
type AuditLog struct {
	mu   sync.Mutex
	recs []Decision
}

// Record appends a decision; pass it as VerifyStage.Audit.
func (a *AuditLog) Record(d Decision) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.recs = append(a.recs, d)
}

// Decisions returns a copy of the recorded decisions.
func (a *AuditLog) Decisions() []Decision {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Decision, len(a.recs))
	copy(out, a.recs)
	return out
}
