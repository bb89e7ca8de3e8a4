package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Pick names numbers in a section's records: Key — a metric or, failing
// that, a param — of every record of Scenario ("*": of any scenario) that
// carries all of Params.
type Pick struct {
	Scenario string
	Params   map[string]float64
	Key      string
}

// Gate is one row of the gate table: one claim of EXPERIMENTS.md as an
// executable statement over the records of a section's smoke run. Every
// number Pick names must stand in relation Op to Value, or to Value × the
// one number Of names.
type Gate struct {
	Section string
	Pick
	Op    string // ">=", "<=", "==", ">" or "<"
	Value float64
	Of    *Pick
	// Noisy marks a wall-clock ratio on a shared host: the section is
	// re-measured, up to three attempts, until the row holds. Every other
	// row is a protocol property and must hold on every attempt.
	Noisy bool
}

// Gates is the gate table: what `odpbench -only <id>smoke` holds its
// records to. The deterministic rows are here rather than in tier-1
// because the runs are too long for it; they leave when they become
// virtual-time property tests.
var Gates = []Gate{
	// The batched data plane at least doubles invocation throughput over the
	// unpipelined baseline on real loopback TCP.
	{Section: "e12", Pick: Pick{Scenario: "tcp/batched", Params: map[string]float64{"bindings": 64, "inflight": 8}, Key: "throughput"}, Op: ">=", Value: 2,
		Of: &Pick{Scenario: "tcp/serial", Params: map[string]float64{"bindings": 64, "inflight": 8}, Key: "throughput"}, Noisy: true},

	// Behind equal capacity gates, 8 shards deliver at least 3x the import
	// throughput of 1; no probe misses while the ring gains and loses a shard.
	{Section: "e13", Pick: Pick{Scenario: "grid", Params: map[string]float64{"shards": 8}, Key: "throughput"}, Op: ">=", Value: 3,
		Of: &Pick{Scenario: "grid", Params: map[string]float64{"shards": 1}, Key: "throughput"}, Noisy: true},
	{Section: "e13", Pick: Pick{Scenario: "rebalance-blackout", Key: "probes"}, Op: ">", Value: 0},
	{Section: "e13", Pick: Pick{Scenario: "rebalance-blackout", Key: "misses"}, Op: "==", Value: 0},

	// One slow consumer keeps its 63 siblings at 80% of their all-fast
	// throughput; its queue never passes its credit window; nothing is
	// reordered or dropped on type grounds, on either transport.
	{Section: "e14", Pick: Pick{Scenario: "one-slow/tcp", Key: "fast_throughput"}, Op: ">=", Value: 0.8,
		Of: &Pick{Scenario: "all-fast/tcp", Key: "fast_throughput"}, Noisy: true},
	{Section: "e14", Pick: Pick{Scenario: "one-slow/tcp", Key: "slow_max_queued"}, Op: "<=", Value: 1,
		Of: &Pick{Scenario: "one-slow/tcp", Key: "window"}},
	{Section: "e14", Pick: Pick{Scenario: "one-slow/sim", Key: "slow_max_queued"}, Op: "<=", Value: 1,
		Of: &Pick{Scenario: "one-slow/sim", Key: "window"}},
	{Section: "e14", Pick: Pick{Scenario: "*", Key: "seq_gaps"}, Op: "==", Value: 0},
	{Section: "e14", Pick: Pick{Scenario: "*", Key: "flow_type_errors"}, Op: "==", Value: 0},

	// Replica-served type reads at least double the gated singleton; the
	// million-binding swarm loses no lookup; a replica-member crash in the
	// middle of a rebalance costs no probe miss.
	{Section: "e15", Pick: Pick{Scenario: "typerepo-replicated", Key: "throughput"}, Op: ">=", Value: 2,
		Of: &Pick{Scenario: "typerepo-singleton", Key: "throughput"}, Noisy: true},
	{Section: "e15", Pick: Pick{Scenario: "swarm", Key: "bindings"}, Op: ">=", Value: 1_000_000},
	{Section: "e15", Pick: Pick{Scenario: "swarm", Key: "lost_lookups"}, Op: "==", Value: 0},
	{Section: "e15", Pick: Pick{Scenario: "crash-rebalance", Key: "probes"}, Op: ">", Value: 0},
	{Section: "e15", Pick: Pick{Scenario: "crash-rebalance", Key: "crash_events"}, Op: ">", Value: 0},
	{Section: "e15", Pick: Pick{Scenario: "crash-rebalance", Key: "misses"}, Op: "==", Value: 0},

	// With recovery on the storm loses no lookup, object or recovery
	// action, rescues victims, re-admits the restarted host and keeps both
	// replicas; the recovery-off control shows the degradation is real.
	{Section: "e16", Pick: Pick{Scenario: "recovery-on", Key: "lost_lookups"}, Op: "==", Value: 0},
	{Section: "e16", Pick: Pick{Scenario: "recovery-on", Key: "dead_objects"}, Op: "==", Value: 0},
	{Section: "e16", Pick: Pick{Scenario: "recovery-on", Key: "rescues"}, Op: ">", Value: 0},
	{Section: "e16", Pick: Pick{Scenario: "recovery-on", Key: "group_size"}, Op: "==", Value: 2},
	{Section: "e16", Pick: Pick{Scenario: "recovery-on", Key: "recovery_failures"}, Op: "==", Value: 0},
	{Section: "e16", Pick: Pick{Scenario: "recovery-on", Key: "readmissions"}, Op: ">", Value: 0},
	{Section: "e16", Pick: Pick{Scenario: "recovery-on", Key: "migrations"}, Op: ">=", Value: 100},
	{Section: "e16", Pick: Pick{Scenario: "recovery-off", Key: "dead_objects"}, Op: ">", Value: 0},
	{Section: "e16", Pick: Pick{Scenario: "recovery-off", Key: "availability"}, Op: "<", Value: 1,
		Of: &Pick{Scenario: "recovery-on", Key: "availability"}},
	{Section: "e16", Pick: Pick{Scenario: "recovery-on", Key: "availability"}, Op: ">=", Value: 0.99, Noisy: true},
}

// String writes the pick as scenario[param:value …].key.
func (p Pick) String() string {
	if len(p.Params) == 0 {
		return p.Scenario + "." + p.Key
	}
	// fmt prints maps in key order.
	return p.Scenario + strings.TrimPrefix(fmt.Sprint(p.Params), "map") + "." + p.Key
}

// values returns the picked number of every matching record; matching no
// record, or a record without Key, is an error.
func (p Pick) values(recs []Record) ([]float64, error) {
	var out []float64
records:
	for _, r := range recs {
		if p.Scenario != "*" && r.Scenario != p.Scenario {
			continue
		}
		for k, want := range p.Params {
			if got, ok := r.Params[k]; !ok || got != want {
				continue records
			}
		}
		v, ok := r.Metrics[p.Key]
		if !ok {
			v, ok = r.Params[p.Key]
		}
		if !ok {
			return nil, fmt.Errorf("record %s has no %q", r.Scenario, p.Key)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no record matches %v", p)
	}
	return out, nil
}

// compare holds the comparisons a row's Op may name.
var compare = map[string]func(v, bound float64) bool{
	">=": func(v, bound float64) bool { return v >= bound },
	"<=": func(v, bound float64) bool { return v <= bound },
	"==": func(v, bound float64) bool { return v == bound },
	">":  func(v, bound float64) bool { return v > bound },
	"<":  func(v, bound float64) bool { return v < bound },
}

// String writes the row as pick op value, or pick op value × pick.
func (g Gate) String() string {
	row := fmt.Sprintf("%v %s %.7g", g.Pick, g.Op, g.Value)
	if g.Of != nil {
		row += fmt.Sprintf(" × %v", *g.Of)
	}
	return row
}

// check evaluates the row against one measurement: the numbers it picked
// and the bound it held them to, written out, and whether it holds. A
// record or key the row names but the measurement lacks is an error.
func (g Gate) check(recs []Record) (string, bool, error) {
	bound := g.Value
	if g.Of != nil {
		of, err := g.Of.values(recs)
		if err == nil && len(of) != 1 {
			err = fmt.Errorf("%v matches %d records, want 1", *g.Of, len(of))
		}
		if err != nil {
			return "", false, err
		}
		bound *= of[0]
	}
	got, err := g.Pick.values(recs)
	if err != nil {
		return "", false, err
	}
	holds := true
	for _, v := range got {
		holds = holds && compare[g.Op](v, bound)
	}
	return fmt.Sprintf("measured %.7g against %.7g", got, bound), holds, nil
}

// gateAttempts is how often a section is measured before a failing Noisy
// row fails the gate: a real regression can never pass, while one run hit
// by a load spike on a shared host does not fail the build.
const gateAttempts = 3

// Hold measures a section and holds the records to the rows gates has
// for section id, writing one verdict line per row to verdicts. A row
// whose records or metric are missing fails. A failing deterministic row
// fails at once; when only Noisy rows fail the section is measured again,
// gateAttempts times at most. With no row for id, Hold is measure.
func Hold(gates []Gate, id string, measure func() ([]Record, string, error), verdicts io.Writer) ([]Record, string, error) {
	for attempt := 1; ; attempt++ {
		recs, text, err := measure()
		if err != nil {
			return nil, "", err
		}
		var failed []string
		final := attempt == gateAttempts
		for _, g := range gates {
			if g.Section != id {
				continue
			}
			measured, ok, err := g.check(recs)
			if err != nil {
				measured = err.Error()
			}
			row := fmt.Sprintf("%v: %s", g, measured)
			fmt.Fprintf(verdicts, "gate %s: %s: %s\n", id, map[bool]string{true: "ok", false: "FAIL"}[ok], row)
			if !ok {
				failed = append(failed, row)
				final = final || !g.Noisy
			}
		}
		if len(failed) == 0 {
			return recs, text, nil
		}
		if final {
			return nil, "", fmt.Errorf("gate failed on attempt %d: %s", attempt, strings.Join(failed, "; "))
		}
		fmt.Fprintf(verdicts, "gate %s: attempt %d of %d missed a wall-clock row; measuring again\n", id, attempt, gateAttempts)
	}
}
