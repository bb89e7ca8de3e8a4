// Command bench is the repository's benchmark: a closed-loop load
// generator that drives seven named workloads through the system's public
// functions and the shipped odpnode binary, checks every output with an
// oracle, and reports the end-to-end and per-layer metrics that
// BENCHMARK.json declares. See README.md beside this file.
//
// One run of one workload, as the benchmark contract asks for it:
//
//	bash bench/run.sh --workload rpc_serial --seed 1 --seconds 10 --trace 0
//
// Every workload, untraced then traced, into a result file:
//
//	bash bench/run.sh -workload all -seed 1 -out a.json [-repeat 5]
//
// Two result files compared against the bounds of BENCHMARK.json:
//
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// spec is BENCHMARK.json: the one place metric names, units, directions
// and bounds are written down. The benchmark reads it rather than repeat it.
type spec struct {
	Workloads []specLoad   `json:"workloads"`
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// workloads are the seven named sets of inputs; the why of each is in
// BENCHMARK.json and README.md.
var workloads = []workload{
	{"rpc_serial", 1, func(c runConfig) (instance, error) {
		return setupBank(bankShape{mode: "inproc", callers: 1}, c)
	}},
	{"rpc_pipelined", maxThreads, func(c runConfig) (instance, error) {
		return setupBank(bankShape{mode: "inproc", callers: 64}, c)
	}},
	// One P here and one in the child (startChild): two processes.
	{"rpc_xproc", 1, func(c runConfig) (instance, error) {
		return setupBank(bankShape{mode: "xproc", callers: 1}, c)
	}},
	{"facade_local", 1, func(c runConfig) (instance, error) {
		return setupBank(bankShape{mode: "facade", callers: 1}, c)
	}},
	{"trade_import", tradeCallers, func(c runConfig) (instance, error) { return setupTrade(false, c) }},
	{"trade_churn", tradeCallers, func(c runConfig) (instance, error) { return setupTrade(true, c) }},
	{"stream_credit", maxThreads, setupStream},
}

// maxThreads is the most Ps the generator ever runs, so that the same run
// shape fits this sandbox and a workstation.
const maxThreads = 4

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// buildOdpnode builds the shipped binary the rpc_xproc child runs, into
// .bench_build at the root of the checkout, and returns its path and the
// seconds the build took.
func buildOdpnode(root string) (string, float64, error) {
	out := filepath.Join(root, ".bench_build", "odpnode")
	abs, err := filepath.Abs(out)
	if err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", abs, "./cmd/odpnode")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/odpnode: %v\n%s", err, msg)
	}
	return abs, time.Since(t0).Seconds(), nil
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Int("seconds", 10, "length of the measured run")
		trace   = flag.Int("trace", 0, "single-run mode: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		root    = flag.String("root", ".", "root of the repository checkout")
		out     = flag.String("out", "", "write the suite's results to this file")
		repeat  = flag.Int("repeat", 1, "run the suite this many times and record median and quartiles")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	single := false
	flag.Visit(func(f *flag.Flag) { single = single || f.Name == "trace" })

	// Never more runnable threads than the host has cores; each workload
	// then takes as many of these as it has use for (useThreads).
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxThreads))

	sp, err := loadSpec(*root)
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare a.json b.json"))
		}
		regressed, err := compareFiles(sp, flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	// BENCHMARK.json names the workloads whose end-to-end metrics are
	// gated; -workload all runs every workload the benchmark has.
	for _, sl := range sp.Workloads {
		if _, ok := findWorkload(sl.Name); !ok {
			fatal(fmt.Errorf("BENCHMARK.json names workload %q, which the benchmark does not have", sl.Name))
		}
	}
	var todo []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}

	cfg := runConfig{seed: *seed, warm: 500 * time.Millisecond, setups: setupBudget}
	buildS := 0.0
	for _, w := range todo {
		if w.name == "rpc_xproc" {
			cfg.odpnode, buildS, err = buildOdpnode(*root)
			if err != nil {
				fatal(err)
			}
		}
	}
	outDir := filepath.Join(*root, "bench", "out")

	if single {
		if len(todo) != 1 {
			fatal(errors.New("-trace needs one -workload"))
		}
		os.Exit(singleRun(sp, todo[0], cfg, *seconds, *trace == 1, outDir, buildS))
	}
	os.Exit(suite(sp, todo, cfg, *seconds, *repeat, *out, outDir, buildS))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// singleRun is one run as the benchmark contract defines it: the metrics
// of one kind for one workload, as one JSON object on the last line.
func singleRun(sp *spec, w workload, cfg runConfig, seconds int, traced bool, outDir string, buildS float64) int {
	var res *runResult
	var err error
	want := sp.EndToEnd
	if traced {
		// The undecorated reference is part of the run, which as a whole
		// still measures for `seconds`: tracedRun on the decorated system
		// (one set-up, so no longer: see segmentMax) and the rest, at
		// least tracedRef, on the reference.
		total := time.Duration(seconds) * time.Second
		dur := min(tracedRun, max(time.Second, total-tracedRef))
		res, err = runTraced(w, cfg, max(tracedRef, total-dur), dur, outDir)
		want = sp.PerLayer
	} else {
		res, err = runUntraced(w, cfg, time.Duration(seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if traced {
		res.Metrics["loadgen.build_s"] = buildS
	}
	printMetrics(os.Stdout, w.name, res.Metrics, sp)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, sm := range want {
		v, ok := res.Metrics[sm.Name]
		if !ok && !traced {
			fmt.Fprintf(os.Stderr, "bench: %s did not produce %s\n", w.name, sm.Name)
			return 1
		}
		// A layer the workload does not cross reports 0.
		line.Metrics[sm.Name] = value{v, sm.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(data))
	if !res.Correct {
		return 1
	}
	return 0
}

// printMetrics lists every metric of a run by name, with its unit.
func printMetrics(f *os.File, workload string, m metrics, sp *spec) {
	units := specUnits(sp)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(f, "%-14s %-40s %16.4f %s\n", workload, k, m[k], units[k])
	}
}
