package experiments

import "testing"

func TestE10SessionScaling(t *testing.T) {
	rows, err := E10SessionScaling([]int{1, 8, 256}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		switch r.Mode {
		case "shared":
			if r.Conns != 1 || r.Dials != 1 {
				t.Errorf("shared n=%d: conns=%d dials=%d, want 1/1", r.Bindings, r.Conns, r.Dials)
			}
		case "per-binding":
			if r.Conns != uint64(r.Bindings) || r.Dials != uint64(r.Bindings) {
				t.Errorf("per-binding n=%d: conns=%d dials=%d, want n/n", r.Bindings, r.Conns, r.Dials)
			}
		default:
			t.Errorf("unknown mode %q", r.Mode)
		}
		if r.P99 <= 0 || r.P50 <= 0 {
			t.Errorf("%s n=%d: zero latency percentiles", r.Mode, r.Bindings)
		}
	}
}
