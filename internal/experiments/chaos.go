// E11 — failure transparency under chaos: a replicated transactional
// bank workload driven through a fixed, seeded fault script (node
// crashes and restarts, a two-node outage, a latency/bandwidth squeeze),
// run twice — once with the failure-policy layer ON (deadline budgets,
// shared circuit breakers, retained members with rejoin) and once with
// the legacy fixed-retry configuration — so the report quantifies what
// Section 7's failure and replication transparencies buy when failures
// actually happen: availability during the faults, tail latency, the
// error taxonomy clients observe, and time-to-recover after the heal.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/channel"
	"repro/internal/coordination"
	"repro/internal/mgmt"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/values"
)

// e11SLO is the per-operation latency objective the availability and
// recovery metrics are defined against.
const e11SLO = 250 * time.Millisecond

// e11Hosts are the replica nodes of the bank; the client host is
// "client" (the netsim default dial origin is irrelevant here — the
// client dials From("client") explicitly).
var e11Hosts = []string{"n1", "n2", "n3"}

// E11Report is one mode's measurement under the fault script.
type E11Report struct {
	Mode     string // "policy-on" | "policy-off"
	Duration time.Duration

	Ops      int // operations attempted
	Failures int // operations that returned an error

	Availability       float64 // successful ops / all ops, whole run
	AvailabilityFaults float64 // ... during the fault window
	AvailabilityHealed float64 // ... after the last heal

	P99Overall time.Duration
	P99Faults  time.Duration
	P99Healed  time.Duration

	// TimeToRecover is measured from the last heal to the completion of
	// the fifth consecutive success within the SLO; negative when the
	// system never recovered inside the run.
	TimeToRecover time.Duration

	Errors map[string]int // taxonomy (errors.Is buckets) -> count

	BreakerOpens    uint64 // channel + group breaker transitions to open
	BreakerRejected uint64 // calls refused while a breaker was open
	Retries         uint64 // channel retries, from the client's SessionStats
	BackoffNs       uint64 // nanoseconds of retry backoff, likewise
	SkippedLegs     uint64 // update legs sat out on an open breaker
	DegradedReads   uint64 // reads served with the staleness flag
	MembersEnd      int    // replicas still in the group at the end

	StaleTrace string // rendered trace of one degraded read ("" if none)
	Timeline   string // the applied fault script, resolved
}

// e11Bank is the replicated servant: per-account balances guarded by a
// mutex, with snapshot/restore standing in for the checkpoint that
// crash recovery replays.
type e11Bank struct {
	mu  sync.Mutex
	bal map[string]int64
}

func newE11Bank() *e11Bank { return &e11Bank{bal: make(map[string]int64)} }

func (b *e11Bank) Invoke(_ context.Context, op string, args []values.Value) (string, []values.Value, error) {
	switch op {
	case "Deposit":
		acct, _ := args[0].AsString()
		amt, _ := args[1].AsInt()
		b.mu.Lock()
		b.bal[acct] += amt
		v := b.bal[acct]
		b.mu.Unlock()
		return "OK", []values.Value{values.Int(v)}, nil
	case "Balance":
		acct, _ := args[0].AsString()
		b.mu.Lock()
		v := b.bal[acct]
		b.mu.Unlock()
		return "OK", []values.Value{values.Int(v)}, nil
	}
	return "", nil, fmt.Errorf("e11: unknown op %q", op)
}

func (b *e11Bank) snapshot() map[string]int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]int64, len(b.bal))
	for k, v := range b.bal {
		out[k] = v
	}
	return out
}

func (b *e11Bank) restore(s map[string]int64) {
	b.mu.Lock()
	b.bal = s
	b.mu.Unlock()
}

// e11Node is one served replica: its bank state plus the channel server
// that exposes it, restartable after a crash.
type e11Node struct {
	host string
	net  *netsim.Network
	id   naming.InterfaceID
	bank *e11Bank

	mu   sync.Mutex
	srv  *channel.Server
	down bool
}

func (n *e11Node) start() error {
	l, err := n.net.Listen(naming.Endpoint("sim://" + n.host))
	if err != nil {
		return err
	}
	srv := channel.NewServer(l, channel.ServerConfig{ReplayGuard: true})
	if err := srv.Register(n.id, nil, n.bank); err != nil {
		l.Close()
		return err
	}
	srv.Start()
	n.mu.Lock()
	n.srv, n.down = srv, false
	n.mu.Unlock()
	return nil
}

func (n *e11Node) stop() {
	n.mu.Lock()
	srv := n.srv
	n.srv, n.down = nil, true
	n.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
}

func (n *e11Node) isDown() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down
}

// e11Script returns the fault timeline scaled to the run duration D:
//
//	0.15D  crash n2
//	0.30D  restart n2 (checkpoint recovery)
//	0.32D  latency spike + bandwidth squeeze on client–n2
//	0.38D  link restored
//	0.40D  crash n1  ┐ two-node outage: only the freshly
//	0.45D  crash n3  ┘ recovered n2 is alive
//	0.60D  restart n1
//	0.65D  restart n3  <- the last heal; recovery is measured from here
func e11Script(d time.Duration) (netsim.Script, time.Duration, time.Duration) {
	at := func(f float64) time.Duration { return time.Duration(f * float64(d)) }
	script := netsim.Script{
		{At: at(0.15), Fault: netsim.Fault{Kind: netsim.FaultCrash, A: "n2"}},
		{At: at(0.30), Fault: netsim.Fault{Kind: netsim.FaultRestart, A: "n2"}},
		{At: at(0.32), Fault: netsim.Fault{Kind: netsim.FaultLink, A: "client", B: "n2",
			Profile: netsim.LinkProfile{Latency: 20 * time.Millisecond, Bandwidth: 1 << 18}}},
		{At: at(0.38), Fault: netsim.Fault{Kind: netsim.FaultLinkClear, A: "client", B: "n2"}},
		{At: at(0.40), Fault: netsim.Fault{Kind: netsim.FaultCrash, A: "n1"}},
		{At: at(0.45), Fault: netsim.Fault{Kind: netsim.FaultCrash, A: "n3"}},
		{At: at(0.60), Fault: netsim.Fault{Kind: netsim.FaultRestart, A: "n1"}},
		{At: at(0.65), Fault: netsim.Fault{Kind: netsim.FaultRestart, A: "n3"}},
	}
	return script, at(0.15), at(0.65)
}

// e11Classify buckets an operation error by its sentinel chain — the
// uniform errors.Is taxonomy the policy layer guarantees.
func e11Classify(err error) string {
	switch {
	case errors.Is(err, policy.ErrCircuitOpen):
		return "circuit-open"
	case errors.Is(err, channel.ErrAttemptTimeout):
		return "attempt-timeout"
	case errors.Is(err, channel.ErrDisconnected):
		return "disconnected"
	case errors.Is(err, coordination.ErrEmptyGroup):
		return "empty-group"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	default:
		return "other"
	}
}

type e11Sample struct {
	at  time.Duration // offset of the op's start from the run's start
	lat time.Duration
	err error
}

// e11 is the E11 section: the same workload under the same fault script
// for 6 s per mode, failure-policy layer on and then off. Its text is the
// error taxonomy of each mode plus the policy-on run's fault timeline and
// one traced degraded read.
func e11(bool) ([]Record, string, error) {
	const dur = 6 * time.Second
	var recs []Record
	var text strings.Builder
	var on E11Report
	for _, policyOn := range []bool{true, false} {
		rep, err := E11Chaos(dur, policyOn)
		if err != nil {
			return nil, "", fmt.Errorf("e11 policyOn=%v: %w", policyOn, err)
		}
		if policyOn {
			on = rep
		}
		recs = append(recs, Record{
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
		if len(rep.Errors) > 0 {
			fmt.Fprintf(&text, "  %s errors: %v\n", rep.Mode, rep.Errors) // fmt prints maps in key order
		}
	}
	indent := func(s string) string {
		return "    " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n    ") + "\n"
	}
	text.WriteString("  fault timeline (policy-on run):\n" + indent(on.Timeline))
	if on.StaleTrace != "" {
		text.WriteString("  one degraded read, traced (staleness flag is the marker span):\n" + indent(on.StaleTrace))
	}
	return recs, text.String(), nil
}

// E11Chaos runs the bank workload for roughly the given duration under
// the fixed fault script and returns the report. policyOn selects the
// failure-policy configuration (budgeted retries, shared breakers,
// retained members with rejoin) versus the legacy fixed-retry one.
func E11Chaos(duration time.Duration, policyOn bool) (E11Report, error) {
	if duration < time.Second {
		duration = time.Second
	}
	f := newFleet(411)
	defer f.close()
	net := f.net
	m := mgmt.New()

	// --- the served replicas --------------------------------------------
	nodes := make(map[string]*e11Node, len(e11Hosts))
	for i, h := range e11Hosts {
		n := &e11Node{
			host: h,
			net:  net,
			id:   naming.InterfaceID{Nonce: uint64(100 + i)},
			bank: newE11Bank(),
		}
		if err := n.start(); err != nil {
			return E11Report{}, err
		}
		nodes[h] = n
	}
	defer func() {
		for _, n := range nodes {
			n.stop()
		}
	}()

	// syncFrom copies a surviving replica's state into host — the
	// in-process stand-in for recovering the crashed replica's last
	// checkpoint plus the updates it missed.
	syncInto := func(host string) {
		for _, h := range e11Hosts {
			if h != host && !nodes[h].isDown() {
				nodes[host].bank.restore(nodes[h].bank.snapshot())
				return
			}
		}
	}

	// --- the client: one session manager, one binding per replica ------
	mgr := f.sessions(net.From("client"))
	mgr.Instrument(m.Sessions("client"))
	mgmt.Read(m, "session.client.", mgr.Stats)
	var chanBreakers, groupBreakers *policy.BreakerSet
	if policyOn {
		chanBreakers = policy.NewBreakerSet(policy.BreakerConfig{
			ConsecutiveFailures: 3,
			OpenFor:             200 * time.Millisecond,
		})
		mgmt.Read(m, "policy.client.breaker.", chanBreakers.Stats)
		mgr.SetBreakers(chanBreakers)
	}

	group := coordination.NewReplicaGroup()
	group.Instrument(m.Group("bank"))
	mgmt.Read(m, "replica.bank.", group.Stats)
	defer group.Close()
	for _, h := range e11Hosts {
		cfg := channel.BindConfig{
			Transport: net.From("client"),
			Sessions:  mgr,
		}
		if policyOn {
			cfg.Policy = policy.RetryPolicy{
				MaxAttempts:    2,
				AttemptTimeout: 100 * time.Millisecond,
				Budget:         250 * time.Millisecond,
				BaseBackoff:    10 * time.Millisecond,
				Jitter:         0.2,
				Seed:           17,
			}
		} else {
			// The configuration the policy layer's bugfix replaced: fixed
			// retry count, a fresh full timeout per attempt, no pacing.
			cfg.Policy = policy.RetryPolicy{MaxAttempts: 4, AttemptTimeout: 150 * time.Millisecond}
		}
		b, err := f.bind(naming.InterfaceRef{
			ID:       nodes[h].id,
			Endpoint: naming.Endpoint("sim://" + h),
		}, cfg)
		if err != nil {
			return E11Report{}, err
		}
		if err := group.Add(h, b); err != nil {
			return E11Report{}, err
		}
	}
	if policyOn {
		groupBreakers = policy.NewBreakerSet(policy.BreakerConfig{
			ConsecutiveFailures: 2,
			OpenFor:             200 * time.Millisecond,
		})
		mgmt.Read(m, "policy.group.breaker.", groupBreakers.Stats)
		group.SetMemberPolicy(&coordination.MemberPolicy{
			Breakers: groupBreakers,
			Retain:   true,
			OnRejoin: func(_ context.Context, name string, _ coordination.Invoker) error {
				syncInto(name)
				return nil
			},
		})
	}

	// --- the fault script -----------------------------------------------
	script, faultsAt, healAt := e11Script(duration)
	chaos := netsim.NewChaos(net, netsim.ChaosConfig{
		Seed: 411,
		Crash: func(h string) error {
			nodes[h].stop()
			return nil
		},
		Restart: func(h string) error {
			syncInto(h)
			return nodes[h].start()
		},
	}, script)

	// --- the workload -----------------------------------------------------
	accounts := []string{"a0", "a1", "a2", "a3"}
	var samples []e11Sample
	start := time.Now()
	chaos.Start()
	for i := 0; time.Since(start) < duration; i++ {
		opCtx, cancel := context.WithTimeout(context.Background(), 800*time.Millisecond)
		at := time.Since(start)
		var err error
		if i%4 == 3 {
			_, _, _, err = group.InvokeReadMeta(opCtx, "Balance",
				[]values.Value{values.Str(accounts[i%len(accounts)])})
		} else {
			_, _, err = group.Invoke(opCtx, "Deposit",
				[]values.Value{values.Str(accounts[i%len(accounts)]), values.Int(1)})
		}
		lat := time.Since(start) - at
		cancel()
		samples = append(samples, e11Sample{at: at, lat: lat, err: err})
		time.Sleep(2 * time.Millisecond)
	}
	chaos.Stop()
	chaos.Advance(duration) // flush any faults the real-time driver missed

	// --- the report -------------------------------------------------------
	rep := E11Report{
		Mode:     map[bool]string{true: "policy-on", false: "policy-off"}[policyOn],
		Duration: duration,
		Errors:   make(map[string]int),
		Timeline: chaos.Timeline(),
	}
	var all, faults, healed []time.Duration
	okAll, okFaults, okHealed := 0, 0, 0
	nFaults, nHealed := 0, 0
	for _, s := range samples {
		rep.Ops++
		all = append(all, s.lat)
		inFaults := s.at >= faultsAt && s.at < healAt
		if inFaults {
			nFaults++
			faults = append(faults, s.lat)
		} else if s.at >= healAt {
			nHealed++
			healed = append(healed, s.lat)
		}
		if s.err != nil {
			rep.Failures++
			rep.Errors[e11Classify(s.err)]++
			continue
		}
		okAll++
		if inFaults {
			okFaults++
		} else if s.at >= healAt {
			okHealed++
		}
	}
	frac := func(ok, n int) float64 {
		if n == 0 {
			return 1
		}
		return float64(ok) / float64(n)
	}
	rep.Availability = frac(okAll, rep.Ops)
	rep.AvailabilityFaults = frac(okFaults, nFaults)
	rep.AvailabilityHealed = frac(okHealed, nHealed)
	_, rep.P99Overall = quantiles(all)
	_, rep.P99Faults = quantiles(faults)
	_, rep.P99Healed = quantiles(healed)

	// Time to recover: the fifth consecutive in-SLO success after the heal.
	rep.TimeToRecover = -1
	streak := 0
	for _, s := range samples {
		if s.at < healAt {
			continue
		}
		if s.err == nil && s.lat <= e11SLO {
			streak++
			if streak == 5 {
				rep.TimeToRecover = s.at + s.lat - healAt
				break
			}
		} else {
			streak = 0
		}
	}

	for _, bs := range []*policy.BreakerSet{chanBreakers, groupBreakers} {
		if bs == nil {
			continue
		}
		st := bs.Stats()
		rep.BreakerOpens += st.Opens
		rep.BreakerRejected += st.Rejected
	}
	sst := mgr.Stats()
	rep.Retries, rep.BackoffNs = sst.Retries, sst.BackoffNs
	gst := group.Stats()
	rep.SkippedLegs = gst.SkippedLegs
	rep.DegradedReads = gst.DegradedReads
	rep.MembersEnd = group.Size()

	// One degraded read, traced: the staleness flag is the marker span.
	for _, sp := range m.Tracer.Spans() {
		if strings.HasPrefix(sp.Name, "replica.read.stale:") {
			rep.StaleTrace = mgmt.RenderTrace(m.Tracer.Trace(sp.Trace))
			break
		}
	}
	return rep, nil
}
