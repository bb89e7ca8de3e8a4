// Package experiments runs the measurements of EXPERIMENTS.md that no
// package test or bench/ workload already makes: how the tutorial's
// transparencies and functions behave across migration, loss, fan-out,
// multiplexing, chaos, pipelining, sharding, streams and self-healing (the
// paper has no measured tables; the figures themselves are pinned by
// package tests, their per-call cost by bench/). Sections is the one table
// of them: cmd/odpbench prints every section's records, and Gates holds the
// claims CI checks against those records.
package experiments

import (
	"context"
	"fmt"
	"log"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/channel"
	"repro/internal/engineering"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/relocator"
	"repro/internal/types"
	"repro/internal/values"
)

func must(err error) {
	if err != nil {
		log.Panicf("experiments: setup failed: %v", err)
	}
}

// ---------------------------------------------------------------------------
// E6 — Section 9's transparencies: the counter every E6 experiment binds

type e6Counter struct{ n atomic.Int64 }

func (c *e6Counter) Invoke(_ context.Context, op string, args []values.Value) (string, []values.Value, error) {
	if op == "Inc" {
		d, _ := args[0].AsInt()
		return "OK", []values.Value{values.Int(c.n.Add(d))}, nil
	}
	return "OK", []values.Value{values.Int(c.n.Load())}, nil
}

func (c *e6Counter) CheckpointState() (values.Value, error) { return values.Int(c.n.Load()), nil }
func (c *e6Counter) RestoreState(v values.Value) error {
	n, _ := v.AsInt()
	c.n.Store(n)
	return nil
}

func e6CounterType() *types.Interface {
	return types.OpInterface("Counter",
		types.Op("Inc", types.Params(types.P("d", values.TInt())),
			types.Term("OK", types.P("n", values.TInt()))),
	)
}

// E6RelocationRecovery measures how long a live binding takes to recover
// across a migration: the relocation-transparency latency.
func E6RelocationRecovery(samples int) ([]time.Duration, error) {
	f := newFleet(5)
	defer f.close()
	reloc := relocator.New()
	capsules := make([]*engineering.Capsule, 2)
	for i, host := range []string{"m0", "m1"} {
		n, err := f.counterNode(host, reloc)
		if err != nil {
			return nil, err
		}
		if capsules[i], err = n.CreateCapsule(); err != nil {
			return nil, err
		}
	}
	cluster, err := capsules[0].CreateCluster(engineering.ClusterOptions{})
	if err != nil {
		return nil, err
	}
	obj, err := cluster.CreateObject("counter", values.Null())
	if err != nil {
		return nil, err
	}
	ref, err := obj.AddInterface(e6CounterType())
	if err != nil {
		return nil, err
	}
	b, err := f.bind(ref, channel.BindConfig{Locator: reloc, Policy: policy.RetryPolicy{MaxAttempts: 6}})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	arg := []values.Value{values.Int(1)}
	if _, _, err := b.Invoke(ctx, "Inc", arg); err != nil {
		return nil, err
	}
	var out []time.Duration
	at := 0
	for i := 0; i < samples; i++ {
		next := (at + 1) % 2
		nk, err := cluster.MigrateTo(capsules[next])
		if err != nil {
			return nil, err
		}
		cluster = nk
		at = next
		start := time.Now()
		if _, _, err := b.Invoke(ctx, "Inc", arg); err != nil {
			return nil, fmt.Errorf("sample %d: %w", i, err)
		}
		out = append(out, time.Since(start))
	}
	return out, nil
}

// e6b is the E6b section: the recovery-latency distribution over 20
// migrations of one bound object.
func e6b(bool) ([]Record, string, error) {
	samples, err := E6RelocationRecovery(20)
	if err != nil {
		return nil, "", err
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return []Record{{
		Experiment: "e6b",
		Scenario:   "first-call-after-migration",
		Metrics: map[string]float64{
			"p50_us": float64(samples[len(samples)/2].Microseconds()),
			"p90_us": float64(samples[len(samples)*9/10].Microseconds()),
			"max_us": float64(samples[len(samples)-1].Microseconds()),
		},
	}}, "", nil
}

// E6FailureMasking runs invocations over a lossy link and reports how
// many succeeded with and without failure transparency.
func E6FailureMasking(dropRate float64, calls int) (withRetries, withoutRetries int, err error) {
	run := func(retries int, seed int64) (int, error) {
		f := newFleet(seed)
		defer f.close()
		f.net.SetLink("client", "srv", netsim.LinkProfile{DropRate: dropRate})
		f.net.SetLink("srv", "client", netsim.LinkProfile{DropRate: dropRate})
		l, err := f.net.Listen("sim://srv")
		if err != nil {
			return 0, err
		}
		_, ref, err := f.start(l, channel.ServerConfig{ReplayGuard: true}, naming.InterfaceID{Nonce: 9}, e6CounterType(), &e6Counter{})
		if err != nil {
			return 0, err
		}
		b, err := f.bind(ref, channel.BindConfig{
			Policy: policy.RetryPolicy{MaxAttempts: retries + 1, AttemptTimeout: 10 * time.Millisecond},
		})
		if err != nil {
			return 0, err
		}
		ok := 0
		ctx := context.Background()
		for i := 0; i < calls; i++ {
			if _, _, err := b.Invoke(ctx, "Inc", []values.Value{values.Int(1)}); err == nil {
				ok++
			}
		}
		return ok, nil
	}
	withRetries, err = run(25, 42)
	if err != nil {
		return 0, 0, err
	}
	withoutRetries, err = run(0, 42)
	return withRetries, withoutRetries, err
}

// e6c is the E6c section: 200 calls over a link dropping 30% each way,
// with 25 retries and with none.
func e6c(bool) ([]Record, string, error) {
	const drop, calls = 0.3, 200
	withRetries, withoutRetries, err := E6FailureMasking(drop, calls)
	if err != nil {
		return nil, "", err
	}
	return []Record{{
		Experiment: "e6c",
		Scenario:   "failure-masking",
		Params:     map[string]float64{"drop": drop, "calls": calls},
		Metrics: map[string]float64{
			"ok_with_retries": float64(withRetries),
			"ok_no_retries":   float64(withoutRetries),
		},
	}}, "", nil
}
