package main

import (
	"strings"
	"testing"
)

// TestRunPrintsBothInteractions: the quickstart prints the interrogation's
// termination and result, then the announcement's effect, the same way
// every run (the announcement reaches main over a channel, not a sleep).
func TestRunPrintsBothInteractions(t *testing.T) {
	const want = "termination: OK\nmessage:     Hello, world!\nannounced:   Wave from world\n"
	for i := 0; i < 3; i++ {
		var out strings.Builder
		if err := run(&out); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if out.String() != want {
			t.Fatalf("run %d printed %q, want %q", i, out.String(), want)
		}
	}
}
