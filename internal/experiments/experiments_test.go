package experiments

import (
	"slices"
	"testing"
)

// timedSection runs section id at its smoke size and checks that it timed
// exactly the named scenarios, in order, and, in a subtest per scenario,
// that each has a mean cost and ordered quantiles: these are the
// EXPERIMENTS.md generators, so a broken scenario means an unreproducible
// experiment, and a renamed one a broken history.
func timedSection(t *testing.T, id string, scenarios ...string) {
	t.Helper()
	i := slices.IndexFunc(Sections, func(s Section) bool { return s.ID == id })
	if i < 0 {
		t.Fatalf("the section table has no %q", id)
	}
	recs, _, err := Sections[i].Run(true)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range recs {
		got = append(got, r.Scenario)
	}
	if !slices.Equal(got, scenarios) {
		t.Errorf("%s timed %q, want %q", id, got, scenarios)
	}
	for _, r := range recs {
		t.Run(r.Scenario, func(t *testing.T) {
			if m := r.Metrics; m["ns_per_op"] <= 0 || m["p50_us"] <= 0 || m["p99_us"] < m["p50_us"] {
				t.Errorf("metrics %v", m)
			}
		})
	}
}

func TestE6d(t *testing.T) {
	timedSection(t, "e6d", "replication-latent/r=1", "replication-latent/r=3", "replication-latent/r=5", "replication-latent/r=9")
}

func TestE7b(t *testing.T) {
	timedSection(t, "e7b", "durable-commit/participants=1", "durable-commit/participants=2",
		"durable-commit/participants=4", "durable-commit/participants=8")
}

func TestE8b(t *testing.T) {
	timedSection(t, "e8b", "import/offers=10000/types=50", "import/federated-latent/links=4")
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
