package experiments

import (
	"strings"
	"testing"
)

// TestE9TracedTransfer is the acceptance check for the management
// subsystem: one replicated, transactional bank deposit must leave a
// single trace crossing every instrumented layer — client stub, binder,
// transport, server dispatch, at least one replica child and at least one
// transaction-participant child: a prepare or a completion leg, since a
// lone store commits in one phase, with no vote.
func TestE9TracedTransfer(t *testing.T) {
	spans, text, err := E9TracedTransfer()
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	classify := func(name string) string {
		for _, prefix := range []string{
			"stub:", "binder", "transport", "dispatch:",
			"replica.update:", "replica:",
			"tx.commit", "tx.prepare:", "tx.complete:",
		} {
			if strings.HasPrefix(name, prefix) {
				return prefix
			}
		}
		return ""
	}
	for _, s := range spans {
		if k := classify(s.Name); k != "" {
			kinds[k] = true
		}
	}
	for _, want := range []string{
		"stub:", "binder", "transport", "dispatch:", "replica:",
	} {
		if !kinds[want] {
			t.Errorf("trace missing a %q span:\n%s", want, text)
		}
	}
	if !kinds["tx.prepare:"] && !kinds["tx.complete:"] {
		t.Errorf("trace missing a transaction-participant span:\n%s", text)
	}
	if len(kinds) < 6 {
		t.Fatalf("trace has %d span kinds, want >= 6:\n%s", len(kinds), text)
	}
	// Single trace, single tree: every span belongs to the deposit.
	for _, s := range spans {
		if s.Trace != spans[0].Trace {
			t.Fatalf("spans from different traces assembled together:\n%s", text)
		}
	}
	if !strings.Contains(text, "replica.update:Deposit") {
		t.Fatalf("rendered trace missing the update root:\n%s", text)
	}
}
