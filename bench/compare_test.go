package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"same", steady, steady, "lower", 0.10, verdictOK},
		{"lower-better, within bound", steady, []float64{108, 109, 107, 108, 108}, "lower", 0.10, verdictOK},
		{"lower-better, past bound", steady, []float64{115, 116, 114, 115, 115}, "lower", 0.10, verdictRegressed},
		{"lower-better, improved", steady, []float64{50, 51, 49, 50, 50}, "lower", 0.10, verdictOK},
		{"higher-better, past bound", steady, []float64{85, 86, 84, 85, 85}, "higher", 0.10, verdictRegressed},
		{"higher-better, improved", steady, []float64{150, 151, 149, 150, 150}, "higher", 0.10, verdictOK},
		{"spread wider than bound", steady, []float64{80, 130, 95, 120, 100}, "lower", 0.10, verdictUnresolved},
		{"wide spread but every run better", []float64{100, 140, 120, 110, 130}, []float64{50, 70, 60, 55, 65}, "lower", 0.10, verdictOK},
		{"single runs cannot be unresolved", []float64{100}, []float64{105}, "lower", 0.10, verdictOK},
	}
	for _, c := range cases {
		if got, _, _ := verdict(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	sp := &spec{EndToEnd: []specMetric{
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
	}, PerLayer: []specMetric{{Name: "loadgen.ops_per_s", Unit: "1/s", Better: "higher"}}}
	// file writes a result file of five runs of workload "w"; edit changes
	// it first.
	file := func(name string, ops float64, edit func(*resultFile)) string {
		rf := resultFile{Schema: resultSchema, Seed: 1, Seconds: 10, TraceSeconds: 5, GOMAXPROCS: 2,
			Workloads: map[string]*workloadRuns{"w": {}}}
		for i := 0; i < 5; i++ {
			rf.Workloads["w"].Runs = append(rf.Workloads["w"].Runs,
				metrics{"ops_per_s": ops + float64(i), "lat_p50_us": 20, "failed_share": 0, "loadgen.ops_per_s": 500})
		}
		if edit != nil {
			edit(&rf)
		}
		data, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	eachRun := func(f func(metrics)) func(*resultFile) {
		return func(rf *resultFile) {
			for _, r := range rf.Workloads["w"].Runs {
				f(r)
			}
		}
	}
	base := file("a.json", 1000, nil)

	for _, c := range []struct {
		name    string
		b       string
		wantBad bool
	}{
		{"identical files", file("same.json", 1000, nil), false},
		{"20% fewer ops/s", file("slow.json", 800, nil), true},
		{"a metric without a bound halves", file("ungated.json", 1000,
			eachRun(func(r metrics) { r["loadgen.ops_per_s"] = 250 })), false},
		{"any rise in failed_share", file("failing.json", 1000,
			eachRun(func(r metrics) { r["failed_share"] = 0.001 })), true},
		{"a workload the candidate lacks", file("noload.json", 1000,
			func(rf *resultFile) { rf.Workloads = map[string]*workloadRuns{"other": rf.Workloads["w"]} }), true},
		{"a gated metric the candidate lacks", file("nometric.json", 1000,
			eachRun(func(r metrics) { delete(r, "lat_p50_us") })), true},
		{"no failed_share in the candidate", file("nofailed.json", 1000,
			eachRun(func(r metrics) { delete(r, "failed_share") })), true},
	} {
		var out bytes.Buffer
		bad, err := compareFiles(sp, base, c.b, &out)
		if err != nil || bad != c.wantBad {
			t.Errorf("%s: bad=%v err=%v, want bad=%v\n%s", c.name, bad, err, c.wantBad, out.String())
		}
		if c.wantBad && !strings.Contains(out.String(), verdictRegressed) {
			t.Errorf("%s: no row says %s\n%s", c.name, verdictRegressed, out.String())
		}
	}

	// Files of different run shapes are refused, not compared.
	for _, c := range []struct {
		field string
		edit  func(*resultFile)
	}{
		{"seed", func(rf *resultFile) { rf.Seed = 2 }},
		{"seconds", func(rf *resultFile) { rf.Seconds = 3 }},
		{"trace_seconds", func(rf *resultFile) { rf.TraceSeconds = 1 }},
		{"gomaxprocs", func(rf *resultFile) { rf.GOMAXPROCS = 4 }},
	} {
		var out bytes.Buffer
		_, err := compareFiles(sp, base, file(c.field+".json", 1000, c.edit), &out)
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("files that differ in %s: error %v, want one that names it", c.field, err)
		}
	}
}

// BENCHMARK.json must name workloads the benchmark has — all of them but
// rpc_xproc, which is run and reported but gates nothing — and its metrics
// must keep to the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, sl := range sp.Workloads {
		named[sl.Name] = true
	}
	for _, w := range workloads {
		if named[w.name] == (w.name == "rpc_xproc") {
			t.Errorf("%s: named in BENCHMARK.json: %v", w.name, named[w.name])
		}
	}
	for _, sl := range sp.Workloads {
		if _, ok := findWorkload(sl.Name); !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", sl.Name)
		}
		if len(sl.Why) == 0 || len(sl.Why) > 200 {
			t.Errorf("%s: why is %d characters", sl.Name, len(sl.Why))
		}
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, sm := range sp.EndToEnd {
		if sm.Bound <= 0 || sm.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", sm.Name, sm.Bound)
		}
		hasSetup = hasSetup || (sm.Name == "setup_s" && sm.Unit == "s" && sm.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s")
	}
	for _, sm := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		if seen[sm.Name] {
			t.Errorf("metric %q named twice", sm.Name)
		}
		seen[sm.Name] = true
		if sm.Better != "lower" && sm.Better != "higher" {
			t.Errorf("%s: better is %q", sm.Name, sm.Better)
		}
		if len(sm.Name) > 64 || len(sm.Unit) == 0 || len(sm.Unit) > 16 {
			t.Errorf("%s: name or unit out of limits", sm.Name)
		}
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
}
