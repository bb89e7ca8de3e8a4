package experiments

// Section is one row of the experiment table: what odpbench prints under
// one heading, and what the tier-1 smoke tests fetch by id.
type Section struct {
	ID    string // the -only name, and the Experiment of every record
	Title string
	// Run measures the section once. smoke asks for the CI slice; text is
	// the prose worth printing beside the records.
	Run func(smoke bool) (recs []Record, text string, err error)
	// SmokeInFull marks a section whose full size takes so long that the
	// run of every section uses its smoke size.
	SmokeInFull bool
}

// Sections is the experiment table, in EXPERIMENTS.md order. A new
// experiment is one row here (and its rows in Gates, if it makes a claim
// CI should hold).
var Sections = []Section{
	{ID: "e6b", Title: "E6b Relocation transparency: binding recovery across migration", Run: e6b},
	{ID: "e6c", Title: "E6c Failure transparency: success rate over a lossy link (drop=30% each way)", Run: e6c},
	{ID: "e6d", Title: "E6d Replication scaling: group update vs replica count (latent links)", Run: e6d},
	{ID: "e7b", Title: "E7b Durable 2PC: commit vs participant count (forced-log delay)", Run: e7b},
	{ID: "e8b", Title: "E8b Trader scaling: indexed import and parallel federation", Run: e8b},
	{ID: "e10", Title: "E10 Session multiplexing: N bindings to one node, shared vs per-binding sessions", Run: e10},
	{ID: "e11", Title: "E11 Failure transparency under chaos: crash/restart + 2-node outage + link squeeze", Run: e11},
	{ID: "e12", Title: "E12 Invocation pipelining + adaptive frame batching: throughput vs data plane", Run: e12},
	{ID: "e13", Title: "E13 Sharded trader: shard scaling, rebalance blackout", Run: reported(E13), SmokeInFull: true},
	{ID: "e14", Title: "E14 Streaming flow control: one slow consumer among 64 credit-windowed streams", Run: reported(E14), SmokeInFull: true},
	{ID: "e15", Title: "E15 De-singletoned control plane: replicated typerepo, sharded bus, 1M swarm, crash storm", Run: reported(E15), SmokeInFull: true},
	{ID: "e16", Title: "E16 Self-healing migration storm: WAN chaos, shard failover, victim rescue", Run: reported(E16), SmokeInFull: true},
}

// reported adapts an experiment whose typed report flattens itself.
func reported[R interface{ Records() []Record }](run func(smoke bool) (R, error)) func(bool) ([]Record, string, error) {
	return func(smoke bool) ([]Record, string, error) {
		rep, err := run(smoke)
		if err != nil {
			return nil, "", err
		}
		return rep.Records(), "", nil
	}
}
