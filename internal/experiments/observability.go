// E9 — management & observability: what the mgmt subsystem shows. The
// traced-transfer demo produces the channel-stage trace of one replicated,
// transactional bank deposit — the end-to-end picture the tutorial's
// engineering viewpoint describes in prose. (What instrumentation costs is
// bench/'s loadgen.trace_overhead_share; that disabled instrumentation
// allocates nothing is a tier-1 budget in internal/channel.)
package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/bank"
	"repro/internal/coordination"
	"repro/internal/core"
	"repro/internal/mgmt"
	"repro/internal/naming"
	"repro/internal/odp"
	"repro/internal/policy"
	"repro/internal/transactions"
	"repro/internal/transparency"
	"repro/internal/values"
)

// E9TracedTransfer builds a two-replica transactional bank, runs one
// deposit through the full stack with management enabled, and returns the
// spans of that interaction plus their rendered tree. One deposit crosses
// every instrumented layer: the replica group update, one client stub +
// binder + transport per replica, the server dispatch on each node, and
// the transaction commit with its per-participant prepare/complete
// phases.
func E9TracedTransfer() ([]mgmt.Span, string, error) {
	// Breakers on: the client host's set reports under policy.client.breaker.*,
	// so the demo's dump shows breaker state beside the trace.
	system, err := odp.New(odp.Config{Seed: 77, Management: true, Breakers: &policy.BreakerConfig{}})
	if err != nil {
		return nil, "", err
	}
	defer system.Close()
	m := system.Mgmt()

	var tellers, managers []naming.InterfaceRef
	for _, host := range []string{"replica-a", "replica-b"} {
		node, err := system.CreateNode(host)
		if err != nil {
			return nil, "", err
		}
		coord := transactions.NewCoordinator()
		coord.Instrument(m.Tx(host))
		mgmt.Read(m, "tx."+host+".", func() struct{ Commits, Aborts uint64 } {
			commits, aborts := coord.Stats()
			return struct{ Commits, Aborts uint64 }{commits, aborts}
		})
		store := transactions.NewStore(host, nil)
		bank.RegisterBehavior(node.Behaviors(), coord, store)
		dep, err := system.Deploy(node, bank.Template("branch-"+host), values.Null())
		if err != nil {
			return nil, "", err
		}
		tellers = append(tellers, dep.Refs["BankTeller"])
		managers = append(managers, dep.Refs["BankManager"])
	}

	contract := core.Contract{
		Require:  core.TransparencySet(core.Access | core.Replication),
		Replicas: 2,
	}
	bindGroup := func(refs []naming.InterfaceRef, typeName, groupName string) (*coordination.ReplicaGroup, error) {
		env := system.Env("client")
		if it, err := system.Types.LookupInterface(typeName); err == nil {
			env.Type = it
		}
		g, err := transparency.Replicate(refs, contract, env)
		if err != nil {
			return nil, err
		}
		g.Instrument(m.Group(groupName))
		mgmt.Read(m, "replica."+groupName+".", g.Stats)
		return g, nil
	}
	mg, err := bindGroup(managers, "BankManager", "managers")
	if err != nil {
		return nil, "", err
	}
	defer mg.Close()
	tg, err := bindGroup(tellers, "BankTeller", "tellers")
	if err != nil {
		return nil, "", err
	}
	defer tg.Close()

	ctx := context.Background()
	term, res, err := mg.Invoke(ctx, "CreateAccount", []values.Value{values.Str("alice")})
	if err != nil || term != "OK" {
		return nil, "", fmt.Errorf("CreateAccount: %s %v", term, err)
	}
	acct := res[0]
	term, _, err = tg.Invoke(ctx, "Deposit", []values.Value{values.Str("alice"), acct, values.Int(500)})
	if err != nil || term != "OK" {
		return nil, "", fmt.Errorf("Deposit: %s %v", term, err)
	}

	// The deposit's trace is the one rooted at its replica-group update.
	for _, s := range m.Tracer.Spans() {
		if strings.HasPrefix(s.Name, "replica.update:Deposit") {
			spans := m.Tracer.Trace(s.Trace)
			text := mgmt.RenderTrace(spans)
			// Append the failure-policy metrics (all healthy here, so the
			// breaker gauges read zero — the live view odpstat serves).
			var pb strings.Builder
			for _, line := range strings.Split(m.Registry.Dump(), "\n") {
				// Dump lines read "counter   <name> <value>"; keep the
				// policy.* family.
				if f := strings.Fields(line); len(f) >= 2 && strings.HasPrefix(f[1], "policy.") {
					pb.WriteString(line)
					pb.WriteByte('\n')
				}
			}
			if pb.Len() > 0 {
				text += "\n== policy ==\n" + pb.String()
			}
			return spans, text, nil
		}
	}
	return nil, "", fmt.Errorf("deposit trace not retained")
}
