package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// stub is a section that counts its runs and reports the smoke flag it
// was measured with.
func stub(id string, runs *int, err error) experiments.Section {
	return experiments.Section{
		ID:    id,
		Title: "section " + id,
		Run: func(smoke bool) ([]experiments.Record, string, error) {
			*runs++
			if err != nil {
				return nil, "", err
			}
			rec := experiments.Record{Experiment: id, Scenario: "full", Metrics: map[string]float64{"misses": 0}}
			if smoke {
				rec.Scenario = "smoke"
			}
			return []experiments.Record{rec}, "  prose of " + id + "\n", nil
		},
	}
}

// TestRunFailingSection pins the exit path: a section error comes back
// from run (main turns it into exit status 1 on stderr), nothing after it
// is measured, and -json never mixes prose into the array's stream.
func TestRunFailingSection(t *testing.T) {
	boom := errors.New("link down")
	for _, args := range [][]string{{"-json"}, {}, {"-only", "bad", "-json"}} {
		var good, bad, after int
		table := []experiments.Section{stub("good", &good, nil), stub("bad", &bad, boom), stub("after", &after, nil)}
		var stdout, stderr bytes.Buffer
		err := run(table, args, &stdout, &stderr)
		if !errors.Is(err, boom) || !strings.Contains(err.Error(), "bad: ") {
			t.Errorf("run(%v) = %v, want the failing section's error under its id", args, err)
		}
		if bad != 1 || after != 0 {
			t.Errorf("run(%v) measured bad %d times and the section after it %d times, want 1 and 0", args, bad, after)
		}
		if strings.Contains(stdout.String(), "link down") {
			t.Errorf("run(%v) printed the error on stdout:\n%s", args, stdout.String())
		}
		if slices.Contains(args, "-json") && stdout.Len() != 0 && !json.Valid(stdout.Bytes()) {
			t.Errorf("run(%v) left stdout neither empty nor valid JSON:\n%s", args, stdout.String())
		}
	}
}

// TestRunUnknownOnly: an id the table does not have is an error that
// lists the ids, and runs nothing — not a silent run of everything.
func TestRunUnknownOnly(t *testing.T) {
	for _, only := range []string{"nosuch", "e9", "e13Smoke", "smoke"} {
		var runs int
		table := []experiments.Section{stub("e12", &runs, nil), stub("e13", &runs, nil)}
		var stdout, stderr bytes.Buffer
		err := run(table, []string{"-only", only}, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "e12 e13") {
			t.Errorf("-only %s = %v, want an error listing the ids", only, err)
		}
		if runs != 0 || stdout.Len() != 0 {
			t.Errorf("-only %s ran %d sections and printed %q", only, runs, stdout.String())
		}
	}
}

// TestRunSelection pins which sections run at which size, and that only
// the smoke suffix turns the gates on: the stub under id e13 has none of
// the records the real gate table asks of e13.
func TestRunSelection(t *testing.T) {
	for _, tc := range []struct {
		only    string
		want    string // "experiment/scenario" of every record, in order
		wantErr string
	}{
		{"", "e2/full e13/smoke", ""}, // the run of everything: full sizes, except where SmokeInFull
		{"e2", "e2/full", ""},
		{"e13", "e13/full", ""},
		{"e2smoke", "e2/smoke", ""}, // no gate row names e2
		{"e13smoke", "", "rebalance-blackout.misses == 0"},
	} {
		var runs int
		e13 := stub("e13", &runs, nil)
		e13.SmokeInFull = true
		table := []experiments.Section{stub("e2", &runs, nil), e13}
		var stdout, stderr bytes.Buffer
		err := run(table, []string{"-json", "-only", tc.only}, &stdout, &stderr)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(stderr.String(), "FAIL") {
				t.Errorf("-only %s = %v, want a failed gate naming %q; stderr:\n%s", tc.only, err, tc.wantErr, stderr.String())
			}
			continue
		}
		if err != nil || stderr.Len() != 0 {
			t.Errorf("-only %q = %v, stderr %q", tc.only, err, stderr.String())
		}
		var recs []experiments.Record
		if err := json.Unmarshal(stdout.Bytes(), &recs); err != nil {
			t.Fatalf("-only %q -json: %v\n%s", tc.only, err, stdout.String())
		}
		var got []string
		for _, r := range recs {
			got = append(got, r.Experiment+"/"+r.Scenario)
		}
		if strings.Join(got, " ") != tc.want {
			t.Errorf("-only %q measured %v, want %s", tc.only, got, tc.want)
		}
	}
}

func TestRunPrintsTitleTableAndProse(t *testing.T) {
	var runs int
	var stdout, stderr bytes.Buffer
	if err := run([]experiments.Section{stub("e2", &runs, nil)}, []string{"-only", "e2"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	const want = "section e2\n  scenario  misses\n  full      0\n  prose of e2\n\n"
	if !strings.HasSuffix(stdout.String(), want) {
		t.Errorf("printed:\n%s\nwant it to end:\n%s", stdout.String(), want)
	}
}

// TestRender is the golden of the one table renderer: params before
// metrics, each in key order; a record with other keys gets a header row
// of its own instead of holes.
func TestRender(t *testing.T) {
	recs := []experiments.Record{
		{Experiment: "ex", Scenario: "grid", Params: map[string]float64{"workers": 48, "shards": 1},
			Metrics: map[string]float64{"throughput": 746.46, "calls": 850}},
		{Experiment: "ex", Scenario: "grid", Params: map[string]float64{"workers": 48, "shards": 16},
			Metrics: map[string]float64{"throughput": 12345.678, "calls": 4750}},
		{Experiment: "ex", Scenario: "rebalance-blackout",
			Metrics: map[string]float64{"misses": 0, "availability": 0.99875, "bindings": 1_000_000}},
	}
	const want = "" +
		"  scenario  shards  workers  calls  throughput\n" +
		"  grid      1       48       850    746.46\n" +
		"  grid      16      48       4750   12345.68\n" +
		"  scenario            availability  bindings  misses\n" +
		"  rebalance-blackout  0.99875       1000000   0\n"
	var out bytes.Buffer
	render(&out, recs)
	if out.String() != want {
		t.Errorf("render printed:\n%s\nwant:\n%s", out.String(), want)
	}
}
