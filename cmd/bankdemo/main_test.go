package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestRunMigrationsAreInvisible runs the demo at reduced size — 4
// customers × 50 operations through 6 back-to-back migrations — and holds
// it to what run checks: no customer sees a failure, and every balance is
// 10,000 plus the customer's accepted deposits minus their accepted
// withdrawals.
func TestRunMigrationsAreInvisible(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-customers", "4", "-ops", "50", "-migrations", "6"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	if n := strings.Count(got, "migrated branch"); n != 6 {
		t.Errorf("%d migrations reported, want 6:\n%s", n, got)
	}
	if !strings.Contains(got, "results: 200 successful operations, 0 denied by the daily limit, 0 client-visible failures") {
		t.Errorf("results line missing or wrong:\n%s", got)
	}
}
