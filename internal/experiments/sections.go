package experiments

import (
	"fmt"
	"runtime"
	"time"
)

// Section is one row of the experiment table: what odpbench prints under
// one heading, and what the tier-1 smoke tests fetch by id. Exactly one of
// Sets and Run is set.
type Section struct {
	ID    string // the -only name, and the Experiment of every record
	Title string
	// Sets are the scenario sets of an ns/op-shaped figure; Measure times
	// every scenario of every set.
	Sets []Set
	// Run measures a section that is not ns/op-shaped. smoke asks for the
	// CI slice, iters is the sample budget and dur the wall-clock budget
	// (each section uses what applies to it); text is the prose worth
	// printing beside the records.
	Run func(smoke bool, iters int, dur time.Duration) (recs []Record, text string, err error)
	// SmokeInFull marks a section whose full size takes so long that the
	// run of every section uses its smoke size.
	SmokeInFull bool
}

// Set is one scenario-set constructor and the share of the sample budget
// each of its scenarios runs for: cheap operations take more samples,
// slow ones fewer.
type Set struct {
	New   func() []Scenario
	Scale float64
}

// Sections is the experiment table, in EXPERIMENTS.md order. A new
// experiment is one row here (and its rows in Gates, if it makes a claim
// CI should hold).
var Sections = []Section{
	{ID: "e1", Title: "E1  Figure 1: cross-viewpoint consistency check", Sets: []Set{{E1Consistency, 1}}},
	{ID: "e2", Title: "E2  Figure 2: bank branch invocations (channel + ACID refinement)", Sets: []Set{{E2Bank, 1}}},
	{ID: "e3", Title: "E3  Figure 3: interface subtype checking", Sets: []Set{{E3Subtype, 1}}},
	{ID: "e4", Title: "E4  Figure 4: channel composition ablation", Sets: []Set{{E4Codec, 10}, {E4Channel, 1}}},
	{ID: "e5", Title: "E5  Figure 5: engineering structures", Sets: []Set{{E5Structure, 0.25}}},
	{ID: "e6", Title: "E6  Section 9: transparency ablation", Sets: []Set{{E6Transparency, 1}}},
	{ID: "e6b", Title: "E6b Relocation transparency: binding recovery across migration", Run: e6b},
	{ID: "e6c", Title: "E6c Failure transparency: success rate over a lossy link (drop=30% each way)", Run: e6c},
	{ID: "e6d", Title: "E6d Replication scaling: group update vs replica count (latent links)", Sets: []Set{{E6ReplicationScaling, 0.1}}},
	{ID: "e7", Title: "E7  Section 8.2.1: ACID transaction function", Sets: []Set{{E7Transactions, 1}}},
	{ID: "e7b", Title: "E7b Durable 2PC: commit vs participant count (forced-log delay)", Sets: []Set{{E7DurableCommit, 0.1}}},
	{ID: "e8", Title: "E8  Section 8.3.2: trading function", Sets: []Set{{E8Trader, 0.25}}},
	{ID: "e8b", Title: "E8b Trader scaling: indexed import and parallel federation", Sets: []Set{{E8TraderScaling, 0.1}, {E8FederationParallel, 0.1}}},
	{ID: "e9", Title: "E9  Section 8.1: management & observability overhead", Sets: []Set{{E9Overhead, 1}}},
	{ID: "e10", Title: "E10 Session multiplexing: N bindings to one node, shared vs per-binding sessions", Run: e10},
	{ID: "e10b", Title: "E10b Session invoke: one call through a session shared with N sibling bindings", Sets: []Set{{E10SessionInvoke, 1}}},
	{ID: "e11", Title: "E11 Failure transparency under chaos: crash/restart + 2-node outage + link squeeze", Run: e11},
	{ID: "e12", Title: "E12 Invocation pipelining + adaptive frame batching: throughput vs data plane", Run: e12},
	{ID: "e13", Title: "E13 Sharded trader: shard scaling, rebalance blackout", Run: reported(E13), SmokeInFull: true},
	{ID: "e14", Title: "E14 Streaming flow control: one slow consumer among 64 credit-windowed streams", Run: reported(E14), SmokeInFull: true},
	{ID: "e15", Title: "E15 De-singletoned control plane: replicated typerepo, sharded bus, 1M swarm, crash storm", Run: reported(E15), SmokeInFull: true},
	{ID: "e16", Title: "E16 Self-healing migration storm: WAN chaos, shard failover, victim rescue", Run: reported(E16), SmokeInFull: true},
}

// reported adapts an experiment whose typed report flattens itself.
func reported[R interface{ Records() []Record }](run func(smoke bool) (R, error)) func(bool, int, time.Duration) ([]Record, string, error) {
	return func(smoke bool, _ int, _ time.Duration) ([]Record, string, error) {
		rep, err := run(smoke)
		if err != nil {
			return nil, "", err
		}
		return rep.Records(), "", nil
	}
}

// Scenarios builds every scenario set of section id, in table order; nil
// for an id the table does not have or a section that is not ns/op-shaped.
func Scenarios(id string) []Scenario {
	var out []Scenario
	for _, s := range Sections {
		if s.ID != id {
			continue
		}
		for _, set := range s.Sets {
			out = append(out, set.New()...)
		}
	}
	return out
}

// Measure runs the section once and returns its records.
func (s Section) Measure(smoke bool, iters int, dur time.Duration) ([]Record, string, error) {
	if s.Run != nil {
		return s.Run(smoke, iters, dur)
	}
	var recs []Record
	for _, set := range s.Sets {
		timed, err := timeScenarios(s.ID, max(int(float64(iters)*set.Scale), 10), set.New())
		if err != nil {
			return nil, "", err
		}
		recs = append(recs, timed...)
	}
	return recs, "", nil
}

// timeScenarios warms every scenario up for a tenth of iters, times iters
// runs of it, and closes the whole set at the end (a set may share one
// deployment, released by one scenario's Close). The allocation figures
// are process-wide runtime.MemStats deltas over the timed runs — a
// scenario's servers allocate too — which is what -benchmem reports.
func timeScenarios(id string, iters int, scenarios []Scenario) ([]Record, error) {
	defer func() {
		for _, s := range scenarios {
			s.Close()
		}
	}()
	var recs []Record
	for _, s := range scenarios {
		var start time.Time
		var before, after runtime.MemStats
		for i := -iters / 10; i < iters; i++ { // the runs below zero are the warm-up
			if i == 0 {
				runtime.ReadMemStats(&before)
				start = time.Now()
			}
			if err := s.Run(); err != nil {
				return nil, fmt.Errorf("%s %s: %w", id, s.Name, err)
			}
		}
		nsPerOp := float64(time.Since(start).Nanoseconds()) / float64(iters)
		runtime.ReadMemStats(&after)
		recs = append(recs, Record{
			Experiment: id,
			Scenario:   s.Name,
			Metrics: map[string]float64{
				"ns_per_op":     nsPerOp,
				"ops_sec":       1e9 / nsPerOp,
				"allocs_per_op": float64(after.Mallocs-before.Mallocs) / float64(iters),
				"bytes_per_op":  float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
			},
		})
	}
	return recs, nil
}
