package experiments

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestGateHold drives the evaluator with a stub section that returns one
// literal measurement per call, and counts the calls: the retry rule is
// the part that used to be written five times in shell.
func TestGateHold(t *testing.T) {
	rec := func(scenario string, shards, throughput, misses float64) Record {
		return Record{Experiment: "ex", Scenario: scenario,
			Params:  map[string]float64{"shards": shards},
			Metrics: map[string]float64{"throughput": throughput, "misses": misses}}
	}
	fast := []Record{rec("grid", 1, 100, 0), rec("grid", 8, 400, 0)}
	slow := []Record{rec("grid", 1, 100, 0), rec("grid", 8, 250, 0)}
	lossy := []Record{rec("grid", 1, 100, 0), rec("grid", 8, 400, 2)}

	ratio := Gate{Section: "ex", Pick: Pick{"grid", map[string]float64{"shards": 8}, "throughput"}, Op: ">=", Value: 3,
		Of: &Pick{Scenario: "grid", Params: map[string]float64{"shards": 1}, Key: "throughput"}, Noisy: true}
	noMiss := Gate{Section: "ex", Pick: Pick{Scenario: "*", Key: "misses"}, Op: "==", Value: 0}
	other := Gate{Section: "other", Pick: Pick{Scenario: "grid", Key: "throughput"}, Op: "<", Value: 0}

	for _, tc := range []struct {
		name     string
		gates    []Gate
		attempts [][]Record // what the section measures, call by call
		wantRuns int
		wantErr  string // "" for a pass; else a substring naming the row
	}{
		{"pass", []Gate{ratio, noMiss, other}, [][]Record{fast}, 1, ""},
		{"no row for the section", []Gate{other}, [][]Record{slow}, 1, ""},
		{"deterministic row fails at once", []Gate{ratio, noMiss}, [][]Record{lossy, fast, fast}, 1,
			"*.misses == 0: measured [0 2]"},
		{"noisy row passes on the third attempt", []Gate{ratio, noMiss}, [][]Record{slow, slow, fast}, 3, ""},
		{"noisy row fails three times", []Gate{ratio, noMiss}, [][]Record{slow, slow, slow}, 3,
			"grid[shards:8].throughput >= 3 × grid[shards:1].throughput: measured [250] against 300"},
		{"deterministic row fails on a later attempt", []Gate{ratio, noMiss}, [][]Record{slow, lossy, fast}, 2,
			"*.misses == 0"},
		{"missing scenario", []Gate{{Section: "ex", Pick: Pick{Scenario: "blackout", Key: "misses"}, Op: "==", Value: 0}},
			[][]Record{fast}, 1, "blackout.misses == 0: no record matches"},
		{"missing metric", []Gate{{Section: "ex", Pick: Pick{Scenario: "grid", Key: "p99_us"}, Op: "<", Value: 1}},
			[][]Record{fast}, 1, `grid.p99_us < 1: record grid has no "p99_us"`},
		{"ambiguous right-hand side", []Gate{{Section: "ex", Pick: Pick{Scenario: "grid", Key: "throughput"}, Op: ">=", Value: 1,
			Of: &Pick{Scenario: "grid", Key: "throughput"}}}, [][]Record{fast}, 1, "matches 2 records, want 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runs := 0
			var verdicts bytes.Buffer
			recs, text, err := Hold(tc.gates, "ex", func() ([]Record, string, error) {
				runs++
				return tc.attempts[runs-1], "prose", nil
			}, &verdicts)
			if runs != tc.wantRuns {
				t.Errorf("section measured %d times, want %d", runs, tc.wantRuns)
			}
			if tc.wantErr == "" {
				if err != nil || text != "prose" || len(recs) != 2 {
					t.Fatalf("Hold = %d records, %q, %v; want the last measurement", len(recs), text, err)
				}
				if strings.Contains(verdicts.String(), "FAIL") != (runs > 1) {
					t.Errorf("verdicts after %d runs:\n%s", runs, verdicts.String())
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Hold error = %v, want it to name %q", err, tc.wantErr)
			}
			if !strings.Contains(verdicts.String(), "gate ex: FAIL: ") {
				t.Errorf("no FAIL verdict written:\n%s", verdicts.String())
			}
		})
	}
}

func TestGateHoldReturnsSectionError(t *testing.T) {
	boom := errors.New("boom")
	_, _, err := Hold(Gates, "e13", func() ([]Record, string, error) { return nil, "", boom }, &bytes.Buffer{})
	if !errors.Is(err, boom) {
		t.Fatalf("Hold error = %v, want the section's", err)
	}
}

// TestGateTableResolves checks every row of the real gate table against
// records of the shape its section really produces, so a renamed
// scenario, param or metric key breaks a test rather than a CI night.
// E13 is measured for real (its smoke slice takes a second or two); the
// sections too slow for tier-1 are resolved against the flattening of a
// report with just the identifying fields set — Records() is where the
// keys are spelled.
func TestGateTableResolves(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the e13 smoke slice")
	}
	e13, err := E13(true)
	if err != nil {
		t.Fatal(err)
	}
	var e12 []Record
	for _, mode := range []string{"serial", "unbatched", "batched"} {
		e12 = append(e12, E12PipelineRow{Transport: "tcp", Mode: mode, Bindings: 64, InFlight: 8}.Records()...)
	}
	var e14 E14Report
	for _, transport := range []string{"sim", "tcp"} {
		for _, scenario := range []string{"all-fast", "one-slow"} {
			e14.Rows = append(e14.Rows, E14Row{Transport: transport, Scenario: scenario})
		}
	}
	records := map[string][]Record{
		"e12": e12,
		"e13": e13.Records(),
		"e14": e14.Records(),
		"e15": E15Report{TypeRepo: []E15TypeRepoRow{{Mode: "singleton"}, {Mode: "replicated"}}}.Records(),
		"e16": E16Result{On: E16Report{Mode: "recovery-on"}, Off: E16Report{Mode: "recovery-off"}}.Records(),
	}
	for _, g := range Gates {
		recs, ok := records[g.Section]
		if !ok {
			t.Errorf("row %v belongs to section %q, which this test has no records for", g, g.Section)
			continue
		}
		if _, _, err := g.check(recs); err != nil {
			t.Errorf("%s row %v does not resolve: %v", g.Section, g, err)
		}
		if compare[g.Op] == nil {
			t.Errorf("%s row %v: unknown comparison %q", g.Section, g, g.Op)
		}
	}
}
