// Package repro's root benchmark suite regenerates every experiment in
// EXPERIMENTS.md (one per figure of the tutorial — the paper has no
// measured tables). cmd/odpbench prints the same scenarios as tables; the
// scenarios themselves live in internal/experiments, and each benchmark
// fetches its sets from the section table there by id.
//
// Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"testing"

	"repro/internal/experiments"
)

// benchSection runs every scenario of the table's section id as a
// sub-benchmark, and closes them all at the end (a set may share one
// deployment).
func benchSection(b *testing.B, id string) {
	b.Helper()
	scenarios := experiments.Scenarios(id)
	if len(scenarios) == 0 {
		b.Fatalf("the section table has no scenario set under %q", id)
	}
	for _, s := range scenarios {
		b.Run(s.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := s.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, s := range scenarios {
		s.Close()
	}
}

// BenchmarkE1_ViewpointConsistency measures the Figure 1 correspondence
// check of the full bank specification.
func BenchmarkE1_ViewpointConsistency(b *testing.B) { benchSection(b, "e1") }

// BenchmarkE2_BankInvocation measures Figure 2's bank branch under its
// three canonical interactions, end to end through the channel stack with
// the ACID refinement.
func BenchmarkE2_BankInvocation(b *testing.B) { benchSection(b, "e2") }

// BenchmarkE3_Subtype measures Figure 3's subtype relation: structural
// checks at growing signature sizes versus the type repository's
// memoised check.
func BenchmarkE3_Subtype(b *testing.B) { benchSection(b, "e3") }

// BenchmarkE4_Channel measures Figure 4's channel composition: codec
// choice (access transparency) and each added stub/binder component.
func BenchmarkE4_Channel(b *testing.B) { benchSection(b, "e4") }

// BenchmarkE5_NodeStructure measures Figure 5's engineering structures:
// building one full containment column, and a cluster
// checkpoint/deactivate/reactivate cycle.
func BenchmarkE5_NodeStructure(b *testing.B) { benchSection(b, "e5") }

// BenchmarkE6_Transparency measures the Section 9 ablation: invocation
// cost as each transparency set is enabled, including replication
// degrees 1, 3 and 5.
func BenchmarkE6_Transparency(b *testing.B) { benchSection(b, "e6") }

// BenchmarkE6_ReplicationScaling measures one group update against
// replica count {1,3,5,9} over the simulated network with nonzero
// per-link latency — the configuration where a serial sequencer pays
// Σ(replica round trips) and a concurrent one pays max(replica round
// trips).
func BenchmarkE6_ReplicationScaling(b *testing.B) { benchSection(b, "e6d") }

// BenchmarkE7_Transaction measures the ACID transaction function:
// two-phase commit latency against participant count, plus the abort path.
func BenchmarkE7_Transaction(b *testing.B) { benchSection(b, "e7") }

// BenchmarkE7_DurableCommit measures two-phase commit against participant
// count {1,2,4,8} when each participant pays a forced-log delay in both
// phases — serial 2PC costs 2·n·delay, concurrent phases cost 2·delay.
func BenchmarkE7_DurableCommit(b *testing.B) { benchSection(b, "e7b") }

// BenchmarkE8_Trader measures the trading function: import latency versus
// offer population, constraint complexity and federation depth.
func BenchmarkE8_Trader(b *testing.B) { benchSection(b, "e8") }

// BenchmarkE8_TraderScaling measures import over 10k offers spread across
// 50 service types, and a federated import across 4 links with per-link
// latency.
func BenchmarkE8_TraderScaling(b *testing.B) { benchSection(b, "e8b") }

// BenchmarkE9_Observability measures the management subsystem's tax on
// the invocation path: the same echo round trip with instrumentation
// absent and fully enabled (metrics + tracing + QoS), and the same frame
// with and without the trace extension. The instrumentation-off scenario
// is the one tier-1 holds to allocation parity with E4's replay-binder.
func BenchmarkE9_Observability(b *testing.B) { benchSection(b, "e9") }

// BenchmarkE10_SessionInvoke measures the per-call price of session
// multiplexing: one invocation through a binding that shares its
// transport session with {0, 63, 255} sibling bindings, isolating the
// (BindingID, Correlation) demux-table overhead on the hot path.
func BenchmarkE10_SessionInvoke(b *testing.B) { benchSection(b, "e10b") }
