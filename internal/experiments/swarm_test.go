package experiments

import (
	"testing"
	"time"
)

// TestE13GridRuns exercises the gated grid harness at a tiny scale: the
// point here is that every shard answers over channels and no import is
// lost, not the scaling ratio (that is the CI smoke gate's job).
func TestE13GridRuns(t *testing.T) {
	rows, err := E13Grid(E13GridConfig{
		ShardCounts:   []int{1, 2},
		Workers:       8,
		Tau:           50 * time.Microsecond,
		Types:         16,
		CallsBase:     100,
		CallsPerShard: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Throughput <= 0 || r.P99 <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
	}
}

func TestE13SwarmSmall(t *testing.T) {
	rep, err := E13Swarm(E13SwarmConfig{
		Bindings: 4000, Hosts: 4, Nodes: 8, Services: 16, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bindings != 4000 {
		t.Fatalf("established %d of 4000 bindings", rep.Bindings)
	}
	if rep.LostLookups != 0 {
		t.Fatalf("%d lost lookups", rep.LostLookups)
	}
	// Each host dials at most one connection per server node; the swarm
	// must not scale connections with bindings.
	if rep.Conns == 0 || rep.Conns > 4*8 {
		t.Fatalf("conns = %d, want (0, 32]", rep.Conns)
	}
	if rep.CacheHitRate < 0.9 {
		t.Fatalf("cache hit rate = %.3f", rep.CacheHitRate)
	}
}

func TestE13BlackoutZeroMisses(t *testing.T) {
	rep, err := E13Blackout(32)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Misses != 0 {
		t.Fatalf("%d probe misses during rebalance", rep.Misses)
	}
	if rep.Probes == 0 {
		t.Fatal("no probes ran")
	}
	// 3 setup AddShards plus the measured add + remove.
	if rep.Rebalances < 5 {
		t.Fatalf("rebalances = %d, want >= 5", rep.Rebalances)
	}
	if rep.Migrated == 0 {
		t.Fatal("ring changes migrated nothing")
	}
	if recs := (E13Report{Blackout: rep}).Records(); len(recs) != 1 {
		// grid empty -> the blackout record only
		t.Fatalf("records = %d", len(recs))
	}
}

// TestRebalanceProbe runs the one rebalance probe in both shapes it is
// recorded in: over plain shards with no faults (the E13 blackout) and
// with a replica-group shard losing a member to a scripted crash
// mid-rebalance (the E15 crash storm). Zero misses is a protocol
// property, not a timing one, so this also runs under the race detector.
func TestRebalanceProbe(t *testing.T) {
	for _, tc := range []struct {
		name  string
		run   func() (E15CrashReport, error)
		crash bool
	}{
		{"plain", func() (E15CrashReport, error) { return rebalanceProbe(32, false, nil) }, false},
		{"replica-shard+crash", func() (E15CrashReport, error) { return E15CrashStorm(32) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Misses != 0 {
				t.Fatalf("%d probe misses during rebalance", rep.Misses)
			}
			if rep.Probes == 0 {
				t.Fatal("no probes ran")
			}
			if rep.Migrated == 0 {
				t.Fatal("ring changes migrated nothing")
			}
			// 3 setup AddShards plus the measured add + remove.
			if rep.Rebalances < 5 {
				t.Fatalf("rebalances = %d, want >= 5", rep.Rebalances)
			}
			if tc.crash && rep.CrashEvents < 1 {
				t.Fatal("the scripted crash never fired")
			}
			if !tc.crash && (rep.CrashEvents != 0 || rep.GroupSize != 0) {
				t.Fatalf("fault-free probe reports a storm: %+v", rep)
			}
		})
	}
}

// TestE15TypeRepoAndBusSmoke runs the two capacity-gated comparisons at
// tiny sample counts and checks what is deterministic about them: where
// the reads landed, and that every mode produced a row.
func TestE15TypeRepoAndBusSmoke(t *testing.T) {
	const calls = 100
	rows, err := E15TypeRepo(calls)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Mode != "singleton" || rows[1].Mode != "replicated" {
		t.Fatalf("typerepo rows: %+v", rows)
	}
	single, repl := rows[0], rows[1]
	if single.AuthorityReads < calls {
		t.Fatalf("singleton: %d authority reads for %d imports — the gate is not on the read path", single.AuthorityReads, calls)
	}
	if repl.AuthorityReads >= single.AuthorityReads || repl.ReplicaReads == 0 {
		t.Fatalf("replicated: %d authority reads (singleton %d), %d replica reads — reads are not served by the replicas",
			repl.AuthorityReads, single.AuthorityReads, repl.ReplicaReads)
	}
	if single.Throughput <= 0 || repl.Throughput <= 0 {
		t.Fatalf("degenerate throughput: %+v", rows)
	}

	bus := E15Bus(200)
	if len(bus) != 1+len(e15BusShardCounts) || bus[0].Mode != "singleton" {
		t.Fatalf("bus rows: %+v", bus)
	}
	for _, b := range bus {
		if b.Events != 200 || b.Throughput <= 0 {
			t.Fatalf("degenerate bus row %+v", b)
		}
	}
}
