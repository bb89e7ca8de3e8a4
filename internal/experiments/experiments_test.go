package experiments

import (
	"testing"
)

// Every scenario must run cleanly: these are the EXPERIMENTS.md
// generators, so a broken scenario means an unreproducible experiment.

func runAll(t *testing.T, scenarios []Scenario) {
	t.Helper()
	for _, s := range scenarios {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			for i := 0; i < 3; i++ {
				if err := s.Run(); err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
			}
		})
	}
	for _, s := range scenarios {
		s.Close()
	}
}

// runSection runs every scenario set the table has under id.
func runSection(t *testing.T, id string) {
	t.Helper()
	scenarios := Scenarios(id)
	if len(scenarios) == 0 {
		t.Fatalf("the section table has no scenario set under %q", id)
	}
	runAll(t, scenarios)
}

func TestE1(t *testing.T)        { runSection(t, "e1") }
func TestE2(t *testing.T)        { runSection(t, "e2") }
func TestE3(t *testing.T)        { runSection(t, "e3") }
func TestE4(t *testing.T)        { runSection(t, "e4") }
func TestE5(t *testing.T)        { runSection(t, "e5") }
func TestE6(t *testing.T)        { runSection(t, "e6") }
func TestE6d(t *testing.T)       { runSection(t, "e6d") }
func TestE7(t *testing.T)        { runSection(t, "e7") }
func TestE7b(t *testing.T)       { runSection(t, "e7b") }
func TestE8(t *testing.T)        { runSection(t, "e8") }
func TestE8b(t *testing.T)       { runSection(t, "e8b") }
func TestE10Invoke(t *testing.T) { runSection(t, "e10b") }

// scenarioAllocs returns the allocations of one warmed-up run of the
// named scenario of section id. Allocation counts are deterministic where
// wall-clock figures are not, which is what makes them tier-1 material.
func scenarioAllocs(t *testing.T, id, name string) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops entries at random, so allocation counts vary")
	}
	scenarios := Scenarios(id)
	defer func() {
		for _, s := range scenarios {
			s.Close()
		}
	}()
	for _, s := range scenarios {
		if s.Name != name {
			continue
		}
		return testing.AllocsPerRun(200, func() {
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Fatalf("section %s has no scenario %q", id, name)
	return 0
}

// TestE2DepositAllocBudget keeps the single-binding hot path to what an
// invocation hands on: both argument slices, the Tx, the store key, the
// result, and for a write the record and its one log copy (7, and 2 spare).
func TestE2DepositAllocBudget(t *testing.T) {
	if allocs := scenarioAllocs(t, "e2", "deposit"); allocs > 9 {
		t.Fatalf("E2 deposit = %v allocs/op, budget 9", allocs)
	}
}

// TestE2BalanceAllocBudget: a read pays the same less the write's two (5,
// and 1 spare) — no log record, no decision entry, no commit machinery.
func TestE2BalanceAllocBudget(t *testing.T) {
	if allocs := scenarioAllocs(t, "e2", "balance"); allocs > 6 {
		t.Fatalf("E2 balance = %v allocs/op, budget 6", allocs)
	}
}

// TestE9DisabledInstrumentationAllocParity pins the management
// subsystem's contract that disabled instrumentation is a nil check: an
// uninstrumented invocation allocates no more than the E4 replay-binder
// baseline, the identical channel configuration built before mgmt existed.
func TestE9DisabledInstrumentationAllocParity(t *testing.T) {
	off := scenarioAllocs(t, "e9", "invoke/instrumentation-off")
	base := scenarioAllocs(t, "e4", "replay-binder")
	if off > base {
		t.Fatalf("instrumentation-off = %v allocs/op, E4 replay-binder = %v", off, base)
	}
}

func TestE6RelocationRecovery(t *testing.T) {
	samples, err := E6RelocationRecovery(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 6 {
		t.Errorf("samples = %d", len(samples))
	}
	for i, d := range samples {
		if d <= 0 {
			t.Errorf("sample %d = %v", i, d)
		}
	}
}

func TestE6FailureMasking(t *testing.T) {
	withRetries, withoutRetries, err := E6FailureMasking(0.3, 60)
	if err != nil {
		t.Fatal(err)
	}
	if withRetries != 60 {
		t.Errorf("with retries = %d/60", withRetries)
	}
	if withoutRetries >= withRetries {
		t.Errorf("retries should improve success: %d vs %d", withoutRetries, withRetries)
	}
}
