package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// resultFile is what the suite writes with -out and -compare reads.
type resultFile struct {
	Schema       string                   `json:"schema"`
	Go           string                   `json:"go"`
	NumCPU       int                      `json:"nproc"`
	GOMAXPROCS   int                      `json:"gomaxprocs"`
	Seed         int64                    `json:"seed"`
	Seconds      int                      `json:"seconds"`
	TraceSeconds int                      `json:"trace_seconds"`
	Repeat       int                      `json:"repeat"`
	Workloads    map[string]*workloadRuns `json:"workloads"`
}

type workloadRuns struct {
	// Runs holds the metrics of each repeat, end-to-end and per-layer
	// together (their names do not collide).
	Runs    []metrics          `json:"runs"`
	Failed  []int64            `json:"failed"`
	Summary map[string]summary `json:"summary"`
}

// summary is a metric over the repeats of one workload.
type summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

const resultSchema = "odp-bench/1"

// suite runs every workload in todo untraced and then traced, repeat
// times, prints every metric and writes the result file.
func suite(sp *spec, todo []workload, cfg runConfig, seconds, repeat int, out, outDir string, buildS float64) int {
	rf := &resultFile{
		Schema: resultSchema, Go: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: cfg.seed, Seconds: seconds,
		TraceSeconds: int(tracedRun.Seconds()), Repeat: repeat, Workloads: map[string]*workloadRuns{},
	}
	code := 0
	for r := 0; r < repeat; r++ {
		for _, w := range todo {
			wr := rf.Workloads[w.name]
			if wr == nil {
				wr = &workloadRuns{}
				rf.Workloads[w.name] = wr
			}
			all := metrics{}
			var failed int64
			un, err := runUntraced(w, cfg, time.Duration(seconds)*time.Second)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			failed += un.Failed
			for k, v := range un.Metrics {
				all[k] = v
			}
			tr, err := runTraced(w, cfg, tracedRef, tracedRun, outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			failed += tr.Failed
			tr.Metrics["loadgen.build_s"] = buildS
			for k, v := range tr.Metrics {
				// The health figures of the untraced run are the ones that
				// describe the end-to-end metrics; keep them.
				if _, dup := all[k]; !dup {
					all[k] = v
				}
			}
			wr.Runs = append(wr.Runs, all)
			wr.Failed = append(wr.Failed, failed)
			fmt.Printf("# %s, repeat %d of %d, seed %d: %d failed\n", w.name, r+1, repeat, cfg.seed, failed)
			printMetrics(os.Stdout, w.name, all, sp)
			if failed != 0 {
				code = 1
			}
		}
	}
	units := specUnits(sp)
	for _, wr := range rf.Workloads {
		wr.Summary = summarizeRuns(wr.Runs, units)
	}
	if out != "" {
		data, err := json.MarshalIndent(rf, "", " ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

func specUnits(sp *spec) map[string]string {
	units := map[string]string{}
	for _, sm := range sp.EndToEnd {
		units[sm.Name] = sm.Unit
	}
	for _, sm := range sp.PerLayer {
		units[sm.Name] = sm.Unit
	}
	return units
}

func summarizeRuns(runs []metrics, units map[string]string) map[string]summary {
	byName := map[string][]float64{}
	for _, r := range runs {
		for k, v := range r {
			byName[k] = append(byName[k], v)
		}
	}
	out := map[string]summary{}
	for k, vs := range byName {
		q1, q2, q3 := quartiles(vs)
		out[k] = summary{Unit: units[k], N: len(vs), Q1: q1, Median: q2, Q3: q3}
	}
	return out
}

// Verdicts of compare.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict compares the values a metric took over the runs of a baseline
// (a) and of a candidate (b). The candidate's median may be worse than the
// baseline's by bound, a share of the baseline. Where the run-to-run spread
// of either side is wider than the bound the difference cannot be resolved,
// unless every run of the candidate reads better than every run of the
// baseline.
func verdict(a, b []float64, better string, bound float64) (v string, worse, spread float64) {
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	if ma != 0 {
		worse = sign * (mb - ma) / math.Abs(ma)
	}
	spread = spreadShare(a)
	if s := spreadShare(b); s > spread {
		spread = s
	}
	allowed := bound * math.Abs(ma)
	iqr := qa3 - qa1
	if qb3-qb1 > iqr {
		iqr = qb3 - qb1
	}
	if len(a) > 1 && len(b) > 1 && iqr > allowed {
		allBetter := true
		for _, x := range a {
			for _, y := range b {
				if sign*(y-x) >= 0 {
					allBetter = false
				}
			}
		}
		if allBetter {
			return verdictOK, worse, spread
		}
		return verdictUnresolved, worse, spread
	}
	if sign*(mb-ma) > allowed {
		return verdictRegressed, worse, spread
	}
	return verdictOK, worse, spread
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, resultSchema)
	}
	return &rf, nil
}

func column(runs []metrics, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// reported are the per-layer metrics -compare lists below the gated ones:
// the rate, latencies and CPU time of the untraced run.
var reported = map[string]bool{
	"loadgen.ops_per_s": true, "loadgen.lat_p50_us": true, "loadgen.lat_p90_us": true, "loadgen.cpu_us_per_op": true,
}

// sameShape refuses two result files that were not produced by the same
// run shape: their numbers would differ for that reason alone.
func sameShape(a, b *resultFile) error {
	for _, f := range []struct {
		name string
		a, b int64
	}{
		{"seed", a.Seed, b.Seed},
		{"seconds", int64(a.Seconds), int64(b.Seconds)},
		{"trace_seconds", int64(a.TraceSeconds), int64(b.TraceSeconds)},
		{"gomaxprocs", int64(a.GOMAXPROCS), int64(b.GOMAXPROCS)},
	} {
		if f.a != f.b {
			return fmt.Errorf("the result files differ in %s (%d and %d) and cannot be compared", f.name, f.a, f.b)
		}
	}
	return nil
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// how much worse the second is, the bound and the verdict. A workload or a
// gated metric that the first file has and the second lacks has regressed.
// It reports whether anything regressed or could not be resolved.
func compareFiles(sp *spec, pathA, pathB string, w io.Writer) (bad bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	if err := sameShape(a, b); err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %8s %7s %7s  %s\n",
		"workload", "metric", "a.median", "b.median", "worse", "bound", "spread", "verdict")
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if rb == nil {
			fmt.Fprintf(w, "%-14s %-20s %14s %14s %8s %7s %7s  %s\n",
				name, "(every metric)", "", "missing", "", "", "", verdictRegressed)
			bad = true
			continue
		}
		for _, sm := range sp.EndToEnd {
			va, vb := column(ra.Runs, sm.Name), column(rb.Runs, sm.Name)
			if len(va) == 0 {
				continue // nothing to compare with
			}
			_, ma, _ := quartiles(va)
			if len(vb) == 0 {
				fmt.Fprintf(w, "%-14s %-20s %14.6g %14s %8s %6.1f%% %7s  %s\n",
					name, sm.Name, ma, "missing", "", sm.Bound*100, "", verdictRegressed)
				bad = true
				continue
			}
			v, worse, spread := verdict(va, vb, sm.Better, sm.Bound)
			_, mb, _ := quartiles(vb)
			fmt.Fprintf(w, "%-14s %-20s %14.6g %14.6g %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				name, sm.Name, ma, mb, worse*100, sm.Bound*100, spread*100, v)
			bad = bad || v != verdictOK
		}
		// The times are compared too, so that a change can be read off the
		// same table, but BENCHMARK.json gives them no bound and they decide
		// nothing.
		for _, sm := range sp.PerLayer {
			va, vb := column(ra.Runs, sm.Name), column(rb.Runs, sm.Name)
			if !reported[sm.Name] || len(va) == 0 || len(vb) == 0 {
				continue
			}
			_, worse, spread := verdict(va, vb, sm.Better, 0)
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			fmt.Fprintf(w, "%-14s %-20s %14.6g %14.6g %+7.1f%% %7s %6.1f%%  %s\n",
				name, sm.Name, ma, mb, worse*100, "none", spread*100, "not gated")
		}
		// Any increase in failures is a regression; there is no bound.
		fa, fb := column(ra.Runs, "failed_share"), column(rb.Runs, "failed_share")
		if len(fa) > 0 {
			_, ma, _ := quartiles(fa)
			mb := math.Inf(1) // a file that does not say counts as failing
			if len(fb) > 0 {
				_, mb, _ = quartiles(fb)
			}
			v := verdictOK
			if mb > ma {
				v, bad = verdictRegressed, true
			}
			fmt.Fprintf(w, "%-14s %-20s %14.6f %14.6f %8s %7s %7s  %s\n",
				name, "failed_share", ma, mb, "", "any", "", v)
		}
	}
	return bad, nil
}
