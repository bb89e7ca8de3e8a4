package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/types"
	"repro/internal/values"
)

func validTemplate() *ObjectTemplate {
	return &ObjectTemplate{
		Name:     "branch",
		Behavior: "bank.branch",
		Arg:      values.Null(),
		Interfaces: []InterfaceDecl{
			{Type: types.OpInterface("T", types.Announce("Ping"))},
			{Type: types.OpInterface("U", types.Announce("Pong")), Contract: Contract{Require: TransparencySet(Access | Relocation)}},
		},
	}
}

func TestTemplateValidate(t *testing.T) {
	if err := validTemplate().Validate(); err != nil {
		t.Fatalf("valid template rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*ObjectTemplate)
	}{
		{"empty-name", func(o *ObjectTemplate) { o.Name = "" }},
		{"empty-behavior", func(o *ObjectTemplate) { o.Behavior = "" }},
		{"no-interfaces", func(o *ObjectTemplate) { o.Interfaces = nil }},
		{"nil-type", func(o *ObjectTemplate) { o.Interfaces[0].Type = nil }},
		{"invalid-type", func(o *ObjectTemplate) {
			o.Interfaces[0].Type = types.OpInterface("X", types.Announce("a"), types.Announce("a"))
		}},
		{"duplicate-type", func(o *ObjectTemplate) { o.Interfaces[1].Type = types.OpInterface("T", types.Announce("Ping")) }},
		{"bad-contract", func(o *ObjectTemplate) { o.Interfaces[0].Contract.MaxLatency = -1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tmpl := validTemplate()
			c.mut(tmpl)
			if err := tmpl.Validate(); !errors.Is(err, ErrBadTemplate) && !errors.Is(err, ErrBadContract) {
				if err == nil {
					t.Fatal("Validate should fail")
				}
				t.Errorf("err = %v", err)
			}
		})
	}
}

func TestTransparencySet(t *testing.T) {
	s := TransparencySet(Access | Failure)
	if !s.Has(Access) || !s.Has(Failure) || s.Has(Migration) {
		t.Errorf("set membership wrong: %v", s)
	}
	if got := TransparencySet(0).String(); got != "none" {
		t.Errorf("empty set = %q", got)
	}
	if got := TransparencySet(Access | Transaction).String(); got != "access+transaction" {
		t.Errorf("set string = %q", got)
	}
	if got := TransparencySet(1 << 12).String(); got == "none" {
		t.Errorf("unknown bits should be reported: %q", got)
	}
}

func TestContractValidate(t *testing.T) {
	good := []Contract{
		{},
		{Require: TransparencySet(AllTransparencies), MaxLatency: time.Second, MaxRetries: 2, Security: SecurityAudited, Replicas: 5},
	}
	for i, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("good contract %d rejected: %v", i, err)
		}
	}
	bad := []Contract{
		{Require: TransparencySet(1 << 12)},
		{MaxLatency: -time.Second},
		{MaxRetries: -1},
		{Replicas: -1},
		{Replicas: 3}, // replicas without Replication
		{Security: SecurityLevel(9)},
	}
	for i, c := range bad {
		if err := c.Validate(); !errors.Is(err, ErrBadContract) {
			t.Errorf("bad contract %d: err = %v", i, err)
		}
	}
}

func TestContractDefaults(t *testing.T) {
	if got := (Contract{}).EffectiveRetries(); got != 0 {
		t.Errorf("no-failure retries = %d", got)
	}
	if got := (Contract{Require: TransparencySet(Failure)}).EffectiveRetries(); got != 3 {
		t.Errorf("failure default retries = %d", got)
	}
	if got := (Contract{Require: TransparencySet(Failure), MaxRetries: 7}).EffectiveRetries(); got != 7 {
		t.Errorf("explicit retries = %d", got)
	}
	if got := (Contract{}).EffectiveReplicas(); got != 1 {
		t.Errorf("no-replication replicas = %d", got)
	}
	if got := (Contract{Require: TransparencySet(Replication)}).EffectiveReplicas(); got != 3 {
		t.Errorf("replication default = %d", got)
	}
	if got := (Contract{Require: TransparencySet(Replication), Replicas: 5}).EffectiveReplicas(); got != 5 {
		t.Errorf("explicit replicas = %d", got)
	}
}

func TestSecurityLevelString(t *testing.T) {
	for l, want := range map[SecurityLevel]string{
		SecurityNone: "none", SecurityAuthenticated: "authenticated", SecurityAudited: "audited",
		SecurityLevel(9): "securitylevel(9)",
	} {
		if got := l.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(l), got, want)
		}
	}
}
