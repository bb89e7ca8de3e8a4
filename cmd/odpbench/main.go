// Command odpbench regenerates every experiment in EXPERIMENTS.md as
// formatted tables: the per-figure micro-benchmarks (E1–E9) plus the
// behavioural measurements that are not ns/op-shaped — relocation
// recovery latency, failure masking under loss, session multiplexing,
// chaos, pipelining and the sharded-infrastructure swarm.
//
// Usage:
//
//	odpbench            # run everything
//	odpbench -iters N   # samples per scenario (default 2000)
//	odpbench -only e10  # just the session-multiplexing table (CI smoke)
//	odpbench -only e11 -dur 10s  # the chaos experiment, policy on vs off
//	odpbench -only e12  # pipelining/batching grid, sim + loopback TCP
//	odpbench -only e12smoke -json  # the CI cell (tcp, 64x8) as JSON
//	odpbench -only e13  # sharded trader: shard-count grid + rebalance blackout
//	odpbench -only e13smoke -json  # the CI slice (1-vs-8 grid)
//	odpbench -only e14  # streaming credit-flow isolation (sim + tcp)
//	odpbench -only e14smoke -json  # the CI slice (fewer elements)
//	odpbench -only e15  # de-singletoned control plane: replicated types, sharded bus, 1M swarm
//	odpbench -only e15smoke -json  # the CI slice (same 1M swarm, fewer samples elsewhere)
//	odpbench -only e16  # self-healing migration storm, recovery on vs off
//	odpbench -only e16smoke -json  # the CI slice (smaller storm) as JSON
//	odpbench -json      # any section: unified []Record instead of tables
//
// With -json every section emits the unified experiments.Record shape
// (experiment id, scenario, numeric params and metrics), one JSON array
// on stdout — the format BENCH files are generated from.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
)

// emitter accumulates unified records; in JSON mode the tables are
// suppressed and the array is printed once at the end.
type emitter struct {
	json bool
	recs []experiments.Record
}

func (e *emitter) add(recs ...experiments.Record) {
	e.recs = append(e.recs, recs...)
}

func (e *emitter) flush() {
	if !e.json {
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(e.recs); err != nil {
		fmt.Fprintf(os.Stderr, "odpbench: encode: %v\n", err)
		os.Exit(1)
	}
}

func main() {
	iters := flag.Int("iters", 2000, "samples per scenario")
	only := flag.String("only", "", "run only the named section (supported: e10, e11, e12, e12smoke, e13, e13smoke, e14, e14smoke, e15, e15smoke, e16, e16smoke)")
	dur := flag.Duration("dur", 6*time.Second, "per-mode wall-clock duration of the e11 chaos run")
	asJSON := flag.Bool("json", false, "emit machine-readable records instead of tables")
	flag.Parse()

	em := &emitter{json: *asJSON}

	if *only == "e12" || *only == "e12smoke" {
		runE12(em, *only == "e12smoke", *iters)
		em.flush()
		return
	}
	if *only == "e13" || *only == "e13smoke" {
		runE13(em, *only == "e13smoke")
		em.flush()
		return
	}
	if *only == "e14" || *only == "e14smoke" {
		runE14(em, *only == "e14smoke")
		em.flush()
		return
	}
	if *only == "e15" || *only == "e15smoke" {
		runE15(em, *only == "e15smoke")
		em.flush()
		return
	}
	if *only == "e16" || *only == "e16smoke" {
		runE16(em, *only == "e16smoke")
		em.flush()
		return
	}

	if !em.json {
		fmt.Println("RM-ODP reproduction — experiment tables (see EXPERIMENTS.md)")
		fmt.Println()
	}

	if *only == "e10" {
		runE10(em, *iters)
		em.flush()
		return
	}
	if *only == "e11" {
		runE11(em, *dur)
		em.flush()
		return
	}

	section(em, "E1  Figure 1: cross-viewpoint consistency check")
	runTable(em, "e1", *iters, []experiments.Scenario{experiments.E1Consistency()})

	section(em, "E2  Figure 2: bank branch invocations (channel + ACID refinement)")
	runTable(em, "e2", *iters, experiments.E2Bank())

	section(em, "E3  Figure 3: interface subtype checking")
	runTable(em, "e3", *iters, experiments.E3Subtype())

	section(em, "E4  Figure 4: channel composition ablation")
	runTable(em, "e4", *iters*10, experiments.E4Codec())
	runTable(em, "e4", *iters, experiments.E4Channel())

	section(em, "E5  Figure 5: engineering structures")
	runTable(em, "e5", *iters/4, experiments.E5Structure())

	section(em, "E6  Section 9: transparency ablation")
	runTable(em, "e6", *iters, experiments.E6Transparency())

	section(em, "E6b Relocation transparency: binding recovery across migration")
	samples, err := experiments.E6RelocationRecovery(20)
	if err != nil {
		fmt.Printf("  error: %v\n", err)
	} else {
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		p50 := samples[len(samples)/2]
		p90 := samples[len(samples)*9/10]
		max := samples[len(samples)-1]
		em.add(experiments.Record{
			Experiment: "e6b",
			Scenario:   "first-call-after-migration",
			Metrics: map[string]float64{
				"p50_us": float64(p50.Microseconds()),
				"p90_us": float64(p90.Microseconds()),
				"max_us": float64(max.Microseconds()),
			},
		})
		if !em.json {
			fmt.Printf("  %-36s %12s %12s %12s\n", "scenario", "p50", "p90", "max")
			fmt.Printf("  %-36s %12v %12v %12v\n", "first-call-after-migration", p50, p90, max)
		}
	}
	blank(em)

	section(em, "E6c Failure transparency: success rate over a lossy link (drop=30% each way)")
	withR, withoutR, err := experiments.E6FailureMasking(0.3, 200)
	if err != nil {
		fmt.Printf("  error: %v\n", err)
	} else {
		em.add(experiments.Record{
			Experiment: "e6c",
			Scenario:   "failure-masking",
			Params:     map[string]float64{"drop": 0.3, "calls": 200},
			Metrics: map[string]float64{
				"ok_with_retries": float64(withR),
				"ok_no_retries":   float64(withoutR),
			},
		})
		if !em.json {
			fmt.Printf("  %-36s %8s\n", "configuration", "ok/200")
			fmt.Printf("  %-36s %8d\n", "failure transparency (25 retries)", withR)
			fmt.Printf("  %-36s %8d\n", "no retries", withoutR)
		}
	}
	blank(em)

	section(em, "E6d Replication scaling: group update vs replica count (latent links)")
	runTable(em, "e6d", *iters/10, experiments.E6ReplicationScaling())

	section(em, "E7  Section 8.2.1: ACID transaction function")
	runTable(em, "e7", *iters, experiments.E7Transactions())

	section(em, "E7b Durable 2PC: commit vs participant count (forced-log delay)")
	runTable(em, "e7b", *iters/10, experiments.E7DurableCommit())

	section(em, "E8  Section 8.3.2: trading function")
	runTable(em, "e8", *iters/4, experiments.E8Trader())

	section(em, "E8b Trader scaling: indexed import and parallel federation")
	runTable(em, "e8b", *iters/10, experiments.E8TraderScaling())
	runTable(em, "e8b", *iters/10, experiments.E8FederationParallel())

	section(em, "E9  Section 8.1: management & observability overhead")
	runTable(em, "e9", *iters, experiments.E9Overhead())

	runE10(em, *iters)
	runE11(em, *dur)
	runE12(em, false, *iters)
	runE13(em, true)
	runE14(em, true)
	runE15(em, true)
	runE16(em, true)
	em.flush()
}

// runE16 prints (or records) the self-healing migration storm: hundreds
// of live relocations across a composed WAN link under a chaos script
// that crashes a trader replica and a whole victim host, measured twice
// — recovery controller wired, then the same script with the controller
// disconnected (the control run).
func runE16(em *emitter, smoke bool) {
	res, err := experiments.E16(smoke)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e16: %v\n", err)
		os.Exit(1)
	}
	em.add(res.Records()...)
	if em.json {
		return
	}
	section(em, "E16 Self-healing migration storm: WAN chaos, shard failover, victim rescue")
	fmt.Printf("  %-14s %8s %8s %8s %9s %10s %10s %6s %7s %6s\n",
		"mode", "probes", "fail", "avail", "maxgap", "ttdead", "ttrecover", "dead", "migr", "lost")
	for _, r := range []experiments.E16Report{res.On, res.Off} {
		ttr := "never"
		if r.TimeToRecover >= 0 {
			ttr = r.TimeToRecover.Round(100 * time.Microsecond).String()
		}
		fmt.Printf("  %-14s %8d %8d %7.2f%% %9v %10v %10s %6d %7d %6d\n",
			r.Mode, r.Probes, r.Failures, 100*r.Availability,
			r.MaxBlackout.Round(100*time.Microsecond),
			r.TimeToDead.Round(100*time.Microsecond), ttr,
			r.DeadObjects, r.Migrations, r.LostLookups)
	}
	on := res.On
	fmt.Printf("  recovery-on: %d rescues, %d actions (%d failed), %d readmission(s),\n",
		on.Rescues, on.RecoveryActions, on.RecoveryFailures, on.Readmissions)
	fmt.Printf("               group size %d after promotion, %d ring rebalances, %d chaos events,\n",
		on.GroupSize, on.RingRebalances, on.ChaosEvents)
	fmt.Printf("               %v storm window\n", on.Window.Round(time.Millisecond))
	fmt.Println()
}

// runE15 prints (or records) the de-singletoned control plane: trader
// import throughput against a capacity-gated type-repository authority,
// singleton vs replicated read front-end; bus publish throughput with
// gated broker shards; the million-binding swarm over the replicated
// repository; and the crash-storm rebalance with one replica-group
// trader shard losing a member mid-flight.
func runE15(em *emitter, smoke bool) {
	rep, err := experiments.E15(smoke)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e15: %v\n", err)
		os.Exit(1)
	}
	em.add(rep.Records()...)
	if em.json {
		return
	}
	section(em, "E15 De-singletoned control plane: replicated typerepo, sharded bus, 1M swarm, crash storm")
	fmt.Printf("  %-28s %8s %12s %12s %12s\n", "typerepo (gated authority)", "calls", "imports/sec", "auth reads", "repl reads")
	for _, t := range rep.TypeRepo {
		fmt.Printf("  %-28s %8d %12.0f %12d %12d\n",
			fmt.Sprintf("%s replicas=%d", t.Mode, t.Replicas),
			t.Calls, t.Throughput, t.AuthorityReads, t.ReplicaReads)
	}
	fmt.Printf("  %-28s %8s %12s\n", "bus (gated brokers)", "events", "pubs/sec")
	for _, b := range rep.Bus {
		fmt.Printf("  %-28s %8d %12.0f\n",
			fmt.Sprintf("%s shards=%d", b.Mode, b.Shards), b.Events, b.Throughput)
	}
	s := rep.Swarm
	fmt.Printf("  swarm: %d bindings over %d hosts x %d nodes (%d shards, %d type replicas):\n",
		s.Bindings, s.Config.Hosts, s.Config.Nodes, s.Config.Shards, s.Config.TypeReplicas)
	fmt.Printf("         %d lost lookups, %d conns, %d dials, cache hit rate %.4f,\n",
		s.LostLookups, s.Conns, s.Dials, s.CacheHitRate)
	fmt.Printf("         %d heapB/binding, p50 %v p99 %v, %.0f bindings/sec (%v total)\n",
		s.HeapPerBinding, s.P50.Round(time.Microsecond), s.P99.Round(time.Microsecond),
		s.PerSec, s.Elapsed.Round(time.Millisecond))
	c := rep.Crash
	fmt.Printf("  crash storm: %d offers probed through add+remove rebalance with a replica-member\n", c.Offers)
	fmt.Printf("               crash (%d chaos events): %d probes, %d misses, worst per-offer gap %v,\n",
		c.CrashEvents, c.Probes, c.Misses, c.MaxBlackout.Round(time.Microsecond))
	fmt.Printf("               %d offers migrated live, replicated shard down to %d member(s)\n",
		c.Migrated, c.GroupSize)
	fmt.Println()
}

// runE14 prints (or records) the streaming credit-flow grid: fast-stream
// throughput, fast-send tail latency and the slow stream's memory ceiling
// with and without one slow consumer among 64 multiplexed streams.
func runE14(em *emitter, smoke bool) {
	rep, err := experiments.E14(smoke)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e14: %v\n", err)
		os.Exit(1)
	}
	em.add(rep.Records()...)
	if em.json {
		return
	}
	section(em, "E14 Streaming flow control: one slow consumer among 64 credit-windowed streams")
	fmt.Printf("  %-20s %12s %10s %10s %9s %9s %8s %8s %8s\n",
		"scenario/transport", "fast el/s", "send p50", "send p99",
		"slow del", "slow maxq", "maxbuf", "gaps", "typeerr")
	for _, r := range rep.Rows {
		fmt.Printf("  %-20s %12.0f %10v %10v %9d %9d %8d %8d %8d\n",
			r.Scenario+"/"+r.Transport, r.FastThroughput,
			r.SendP50.Round(time.Microsecond), r.SendP99.Round(time.Microsecond),
			r.SlowDelivered, r.SlowMaxQueued, r.MaxBuffered, r.SeqGaps, r.FlowTypeErrors)
	}
	fmt.Println()
}

// runE13 prints (or records) the sharded trader: import throughput vs
// shard count with capacity-gated shards over channels, and the
// per-offer rebalance blackout probe. (The binding swarm is measured
// once, at one million bindings, in E15.)
func runE13(em *emitter, smoke bool) {
	rep, err := experiments.E13(smoke)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e13: %v\n", err)
		os.Exit(1)
	}
	em.add(rep.Records()...)
	if em.json {
		return
	}
	section(em, "E13 Sharded trader: shard scaling, rebalance blackout")
	fmt.Printf("  %-24s %8s %12s %10s %10s\n", "grid (gated shards)", "calls", "imports/sec", "p50", "p99")
	for _, g := range rep.Grid {
		fmt.Printf("  %-24s %8d %12.0f %10v %10v\n",
			fmt.Sprintf("shards=%d workers=%d", g.Shards, g.Workers),
			g.Calls, g.Throughput, g.P50.Round(time.Microsecond), g.P99.Round(time.Microsecond))
	}
	b := rep.Blackout
	fmt.Printf("  blackout: %d offers probed through add+remove rebalance: %d probes, %d misses,\n",
		b.Offers, b.Probes, b.Misses)
	fmt.Printf("            worst per-offer gap %v, %d offers migrated live\n",
		b.MaxBlackout.Round(time.Microsecond), b.Migrated)
	fmt.Println()
}

// runE12 prints (or records) the pipelining and
// frame-batching grid: invocation throughput and latency for batched vs
// unbatched data planes across bindings × in-flight, on the simulated
// network and on real loopback TCP. smoke restricts the grid to the CI
// cell (tcp, 64 bindings × 8 in-flight) plus the single-call latency
// cell (tcp, 1×1) that guards against batching taxing the idle path.
func runE12(em *emitter, smoke bool, iters int) {
	type sweep struct {
		transport          string
		bindings, inflight []int
	}
	budget := iters * 4 // per-cell invocation budget
	if budget < 2000 {
		budget = 2000
	}
	sweeps := []sweep{
		{"sim", []int{1, 64, 256}, []int{1, 8, 64}},
		{"tcp", []int{1, 64, 256}, []int{1, 8, 64}},
	}
	if smoke {
		sweeps = []sweep{{"tcp", []int{1, 64}, []int{1, 8}}}
	}
	var rows []experiments.E12PipelineRow
	for _, sw := range sweeps {
		r, err := experiments.E12Pipeline(sw.transport, sw.bindings, sw.inflight, budget)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e12 %s: %v\n", sw.transport, err)
			os.Exit(1)
		}
		rows = append(rows, r...)
	}
	for _, r := range rows {
		em.add(r.Records()...)
	}
	if em.json {
		return
	}
	fmt.Println("E12 Invocation pipelining + adaptive frame batching: throughput vs data plane")
	fmt.Printf("  %-28s %10s %12s %10s %10s\n",
		"transport/mode/n×k", "calls", "calls/sec", "p50", "p99")
	for _, r := range rows {
		fmt.Printf("  %-28s %10d %12.0f %10v %10v\n",
			fmt.Sprintf("%s/%s/n=%d k=%d", r.Transport, r.Mode, r.Bindings, r.InFlight),
			r.Calls, r.Throughput, r.P50, r.P99)
	}
	fmt.Println()
}

// runE11 prints the chaos table: the same replicated bank workload under
// the same fault script, with the failure-policy layer on and off.
func runE11(em *emitter, dur time.Duration) {
	section(em, "E11 Failure transparency under chaos: crash/restart + 2-node outage + link squeeze")
	type row struct {
		name string
		rep  experiments.E11Report
	}
	var rows []row
	for _, on := range []bool{true, false} {
		rep, err := experiments.E11Chaos(dur, on)
		if err != nil {
			fmt.Printf("  error (policyOn=%v): %v\n", on, err)
			return
		}
		rows = append(rows, row{rep.Mode, rep})
		em.add(experiments.Record{
			Experiment: "e11",
			Scenario:   rep.Mode,
			Params:     map[string]float64{"dur_s": dur.Seconds()},
			Metrics: map[string]float64{
				"ops":                 float64(rep.Ops),
				"availability":        rep.Availability,
				"availability_faults": rep.AvailabilityFaults,
				"availability_healed": rep.AvailabilityHealed,
				"p99_faults_us":       float64(rep.P99Faults.Microseconds()),
				"p99_healed_us":       float64(rep.P99Healed.Microseconds()),
				"ttr_ms":              float64(rep.TimeToRecover.Milliseconds()),
				"breaker_opens":       float64(rep.BreakerOpens),
				"retries":             float64(rep.Retries),
				"degraded_reads":      float64(rep.DegradedReads),
			},
		})
	}
	if em.json {
		return
	}
	fmt.Printf("  %-12s %6s %9s %9s %9s %10s %10s %9s %7s %7s %7s\n",
		"mode", "ops", "avail", "av.fault", "av.heal", "p99.fault", "p99.heal", "ttr", "opens", "retry", "stale")
	for _, r := range rows {
		ttr := "never"
		if r.rep.TimeToRecover >= 0 {
			ttr = r.rep.TimeToRecover.Round(time.Millisecond).String()
		}
		fmt.Printf("  %-12s %6d %8.2f%% %8.2f%% %8.2f%% %10v %10v %9s %7d %7d %7d\n",
			r.name, r.rep.Ops,
			100*r.rep.Availability, 100*r.rep.AvailabilityFaults, 100*r.rep.AvailabilityHealed,
			r.rep.P99Faults.Round(time.Millisecond), r.rep.P99Healed.Round(time.Millisecond),
			ttr, r.rep.BreakerOpens, r.rep.Retries, r.rep.DegradedReads)
	}
	for _, r := range rows {
		if len(r.rep.Errors) == 0 {
			continue
		}
		keys := make([]string, 0, len(r.rep.Errors))
		for k := range r.rep.Errors {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("  %s errors:", r.name)
		for _, k := range keys {
			fmt.Printf(" %s=%d", k, r.rep.Errors[k])
		}
		fmt.Println()
	}
	fmt.Println("  fault timeline (policy-on run):")
	for _, line := range strings.Split(strings.TrimRight(rows[0].rep.Timeline, "\n"), "\n") {
		fmt.Println("    " + line)
	}
	if rows[0].rep.StaleTrace != "" {
		fmt.Println("  one degraded read, traced (staleness flag is the marker span):")
		for _, line := range strings.Split(strings.TrimRight(rows[0].rep.StaleTrace, "\n"), "\n") {
			fmt.Println("    " + line)
		}
	}
	fmt.Println()
}

// runE10 prints the session-multiplexing table: connections, dials, heap
// and latency against binding count, shared session manager vs one
// manager per binding.
func runE10(em *emitter, iters int) {
	section(em, "E10 Session multiplexing: N bindings to one node, shared vs per-binding sessions")
	calls := iters / 100
	if calls < 10 {
		calls = 10
	}
	rows, err := experiments.E10SessionScaling([]int{1, 16, 64, 256}, calls)
	if err != nil {
		fmt.Printf("  error: %v\n", err)
		return
	}
	for _, r := range rows {
		em.add(experiments.Record{
			Experiment: "e10",
			Scenario:   r.Mode,
			Params:     map[string]float64{"bindings": float64(r.Bindings)},
			Metrics: map[string]float64{
				"conns":            float64(r.Conns),
				"dials":            float64(r.Dials),
				"heap_per_binding": float64(r.HeapPerB),
				"p50_us":           float64(r.P50.Microseconds()),
				"p99_us":           float64(r.P99.Microseconds()),
			},
		})
	}
	if em.json {
		return
	}
	fmt.Printf("  %-24s %6s %6s %12s %10s %10s\n",
		"mode/bindings", "conns", "dials", "heapB/bind", "p50", "p99")
	for _, r := range rows {
		fmt.Printf("  %-24s %6d %6d %12d %10v %10v\n",
			fmt.Sprintf("%s/n=%d", r.Mode, r.Bindings),
			r.Conns, r.Dials, r.HeapPerB, r.P50, r.P99)
	}
	fmt.Println()
}

func section(em *emitter, title string) {
	if em.json {
		return
	}
	fmt.Println(title)
}

func blank(em *emitter) {
	if em.json {
		return
	}
	fmt.Println()
}

func runTable(em *emitter, expID string, iters int, scenarios []experiments.Scenario) {
	if iters < 10 {
		iters = 10
	}
	if !em.json {
		fmt.Printf("  %-40s %14s %12s\n", "scenario", "ns/op", "ops/sec")
	}
	for _, s := range scenarios {
		// Warm up, then measure.
		for i := 0; i < iters/10; i++ {
			if err := s.Run(); err != nil {
				fmt.Printf("  %-40s error: %v\n", s.Name, err)
				break
			}
		}
		start := time.Now()
		var failed error
		for i := 0; i < iters; i++ {
			if err := s.Run(); err != nil {
				failed = err
				break
			}
		}
		elapsed := time.Since(start)
		if failed != nil {
			fmt.Printf("  %-40s error: %v\n", s.Name, failed)
			continue
		}
		nsPerOp := float64(elapsed.Nanoseconds()) / float64(iters)
		em.add(experiments.Record{
			Experiment: expID,
			Scenario:   s.Name,
			Metrics: map[string]float64{
				"ns_per_op": nsPerOp,
				"ops_sec":   1e9 / nsPerOp,
			},
		})
		if !em.json {
			fmt.Printf("  %-40s %14.0f %12.0f\n", s.Name, nsPerOp, 1e9/nsPerOp)
		}
	}
	for _, s := range scenarios {
		s.Close()
	}
	blank(em)
}
