// E16: the migration storm — the self-healing layer under WAN chaos.
// PR 10 added the sensing/acting split (internal/health: failure
// detector + recovery controller) and the WAN vocabulary (composable
// link profiles, federated domains in the chaos harness). E16 turns
// both on at once and measures whether the §9 failure and migration
// transparencies actually hold end to end:
//
//   - a fleet of live objects is relocated hundreds of times across an
//     asymmetric, lossy WAN link while client traffic flows — the
//     migration path (checkpoint, install-before-withdraw, relocator
//     epoch fencing, binding re-resolution) under the worst network the
//     sim can produce;
//   - a trader shard backed by a ReplicaGroup loses one replica to a
//     scripted crash; the recovery controller notices (detector →
//     transition → plan) and promotes a standby: drop the dead member,
//     re-replicate its offers from the survivor through the same
//     Import/Install enumeration the live rebalance uses, re-admit.
//     Zero lost lookups is the gate — the failover must be invisible;
//   - a whole victim host dies with live objects on it; recovery
//     recovers its clusters from their checkpoints (coordination's
//     checkpoint store) on a spare node, and the victims' bindings
//     re-resolve — availability through the storm stays above the
//     gate. The same script with recovery off leaves the victims
//     permanently dark: the contrast is the point (failure transparency
//     is a prescribed property, and this is the machinery the
//     prescription buys);
//   - mid-storm the trader ring itself rebalances (a shard joins, a
//     shard drains away) so the epoch-fenced migration path runs
//     concurrently with the health-driven failover.
//
// Blackout is measured per object: the longest gap between consecutive
// successful probes that overlaps the storm. Time-to-suspect /
// time-to-dead / time-to-recover are measured from the chaos harness's
// crash instant to the detector's transition and the recovery plan's
// completion.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/channel"
	"repro/internal/coordination"
	"repro/internal/engineering"
	"repro/internal/health"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/relocator"
	"repro/internal/trader"
	"repro/internal/values"
)

// E16Config parameterises one storm run.
type E16Config struct {
	Objects    int           // live objects in the migration storm (w1/e0/e1)
	Victims    int           // live objects pinned to the victim host w0
	Migrations int           // storm relocations across the WAN
	Services   int           // trader service types under probe
	WANScale   float64       // scales the composed WAN profile's delays
	Unit       time.Duration // chaos timeline unit (faults at small multiples)
	Tail       time.Duration // post-storm probe window (closes trailing gaps)
	Recovery   bool          // wire the controller (false = sense but never act)
	Seed       int64
}

// E16Report is one mode's measurement.
type E16Report struct {
	Mode       string // "recovery-on" or "recovery-off"
	Objects    int    // probed objects (storm pool + victims)
	Migrations uint64 // storm relocations completed
	Rescues    uint64 // victim clusters re-instantiated by recovery

	Probes       uint64  // successful object probes in the window
	Failures     uint64  // failed object probes in the window
	Availability float64 // Probes / (Probes + Failures)
	MaxBlackout  time.Duration
	MeanBlackout time.Duration // mean of per-object worst gaps
	DeadObjects  int           // objects with no success in the final tail

	TraderLookups uint64 // trader imports attempted in the window
	LostLookups   uint64 // imports that errored or found nothing

	TimeToSuspect time.Duration // worst across the crashed endpoints
	TimeToDead    time.Duration
	TimeToRecover time.Duration // crash → recovery plan completed (-1 if never)

	RecoveryActions  uint64
	RecoveryFailures uint64
	Readmissions     uint64 // breaker-gated heal actions (the restart path)
	GroupSize        int    // trader replica group members at the end
	RingRebalances   uint64 // trader ring epoch changes during the storm
	ChaosEvents      int
	Window           time.Duration
}

// E16Result pairs the two modes of one storm.
type E16Result struct {
	On  E16Report
	Off E16Report
}

// E16 runs the storm twice — recovery on, then the same script with the
// controller disconnected — so the report carries its own control.
func E16(smoke bool) (E16Result, error) {
	cfg := E16Config{Objects: 48, Victims: 6, Migrations: 400, Services: 32,
		WANScale: 0.1, Unit: 6 * time.Millisecond, Tail: 200 * time.Millisecond, Seed: 16777}
	if smoke {
		cfg = E16Config{Objects: 24, Victims: 3, Migrations: 120, Services: 24,
			WANScale: 0.05, Unit: 4 * time.Millisecond, Tail: 120 * time.Millisecond, Seed: 16777}
	}
	var res E16Result
	var err error
	cfg.Recovery = true
	if res.On, err = E16MigrationStorm(cfg); err != nil {
		return res, fmt.Errorf("e16 recovery-on: %w", err)
	}
	cfg.Recovery = false
	if res.Off, err = E16MigrationStorm(cfg); err != nil {
		return res, fmt.Errorf("e16 recovery-off: %w", err)
	}
	return res, nil
}

// e16Object is one probed live object.
type e16Object struct {
	name    string
	binding *channel.Binding
	cluster *engineering.Cluster // current engineering realisation (storm pool)
	at      int                  // index into the storm capsule ring
}

// E16MigrationStorm runs one mode of the storm.
func E16MigrationStorm(cfg E16Config) (E16Report, error) {
	rep := E16Report{Mode: "recovery-off", TimeToRecover: -1,
		TimeToSuspect: -1, TimeToDead: -1}
	if cfg.Recovery {
		rep.Mode = "recovery-on"
	}

	f := newFleet(cfg.Seed)
	defer f.close()
	net := f.net
	reloc := relocator.New()

	// --- engineering fleet: two WAN domains plus a standby spare -------
	hosts := []string{"w0", "w1", "e0", "e1", "spare"}
	capsules := make(map[string]*engineering.Capsule, len(hosts))
	for _, h := range hosts {
		n, err := f.counterNode(h, reloc)
		if err != nil {
			return rep, err
		}
		c, err := n.CreateCapsule()
		if err != nil {
			return rep, err
		}
		capsules[h] = c
	}
	// The storm pool migrates around this ring; w0 is never a member —
	// its objects are the victims, owned by recovery alone.
	ring := []string{"w1", "e0", "e1"}

	deploy := func(host, name string) (*engineering.Cluster, naming.InterfaceRef, error) {
		cl, err := capsules[host].CreateCluster(engineering.ClusterOptions{})
		if err != nil {
			return nil, naming.InterfaceRef{}, err
		}
		obj, err := cl.CreateObject("counter", values.Null())
		if err != nil {
			return nil, naming.InterfaceRef{}, err
		}
		ref, err := obj.AddInterface(e6CounterType())
		if err != nil {
			return nil, naming.InterfaceRef{}, err
		}
		return cl, ref, nil
	}

	bind := func(ref naming.InterfaceRef) (*channel.Binding, error) {
		return f.bind(ref, channel.BindConfig{
			Locator: reloc,
			Policy:  policy.RetryPolicy{MaxAttempts: 4, AttemptTimeout: 20 * time.Millisecond},
		})
	}

	var objects []*e16Object // storm pool first, then victims
	for i := 0; i < cfg.Objects; i++ {
		at := i % len(ring)
		cl, ref, err := deploy(ring[at], fmt.Sprintf("obj%02d", i))
		if err != nil {
			return rep, err
		}
		b, err := bind(ref)
		if err != nil {
			return rep, err
		}
		objects = append(objects, &e16Object{name: fmt.Sprintf("obj%02d", i), binding: b, cluster: cl, at: at})
	}
	var victimClusters []*engineering.Cluster
	for i := 0; i < cfg.Victims; i++ {
		cl, ref, err := deploy("w0", fmt.Sprintf("vic%02d", i))
		if err != nil {
			return rep, err
		}
		b, err := bind(ref)
		if err != nil {
			return rep, err
		}
		objects = append(objects, &e16Object{name: fmt.Sprintf("vic%02d", i), binding: b})
		victimClusters = append(victimClusters, cl)
	}
	rep.Objects = len(objects)

	// --- trader fleet: plain shards + one replica-group shard ----------
	f.types = e13Repo(cfg.Services)
	fe := trader.NewSharded("fe", f.types, 0)
	if err := f.addShard(fe, 0, nil); err != nil {
		return rep, err
	}
	if err := f.addShard(fe, 2, nil); err != nil {
		return rep, err
	}
	// Shard s1 is a replica group: rep0 + rep1 serving, rep2 a warm
	// standby outside the group (same trader name, so re-replicated
	// offers keep their ids). The chaos script kills rep0.
	group, err := f.groupShard("rep0", "rep1")
	if err != nil {
		return rep, err
	}
	shard := trader.NewRemote(group)
	if err := fe.AddShard("s1", shard); err != nil {
		return rep, err
	}
	standbyBinding, err := f.traderNode("rep2", "sg", 202, nil)
	if err != nil {
		return rep, err
	}
	standby := trader.NewRemote(standbyBinding)
	if err := e13Export(fe, cfg.Services, 5000); err != nil {
		return rep, err
	}

	// --- self-healing layer --------------------------------------------
	crashMu := sync.Mutex{}
	crashAt := map[string]time.Time{}
	suspectAt := map[string]time.Time{}
	deadAt := map[string]time.Time{}
	recoveredAt := map[string]time.Time{}
	stamp := func(m map[string]time.Time, ep string) {
		crashMu.Lock()
		if _, dup := m[ep]; !dup {
			m[ep] = time.Now()
		}
		crashMu.Unlock()
	}

	breakers := policy.NewBreakerSet(policy.BreakerConfig{
		ConsecutiveFailures: 1,
		OpenFor:             4 * cfg.Unit,
	})
	ctl := health.NewController(health.ControllerConfig{
		Breakers:   breakers,
		RetryDelay: time.Millisecond,
	})
	defer ctl.Close()

	// rep0's plan: the automatic shard failover. Drop the dead member,
	// re-replicate the shard's offers from the survivor through the same
	// Import/Install path the live rebalance uses, promote the standby.
	ctl.SetPlan("rep0", health.Plan{
		OnDead: func(ctx context.Context, ep string) error {
			breakers.For(ep).Record(false)
			// The group's default member policy may already have dropped
			// the dead member when a fanned-out call failed; the plan's
			// removal only has to make sure it is gone.
			if err := group.Remove("rep0"); err != nil && !errors.Is(err, coordination.ErrNoSuchGroup) {
				return err
			}
			for i := 0; i < cfg.Services; i++ {
				offers, err := shard.Import(trader.ImportRequest{ServiceType: e13TypeName(i)})
				if err != nil {
					return fmt.Errorf("re-replicate %s: %w", e13TypeName(i), err)
				}
				for _, o := range offers {
					if err := standby.Install(o); err != nil {
						return fmt.Errorf("install %s on standby: %w", o.ID, err)
					}
				}
			}
			if err := group.Add("rep2", standbyBinding); err != nil {
				return err
			}
			stamp(recoveredAt, ep)
			return nil
		},
	})
	// w0's plan: the victim rescue. Recover each victim cluster from its
	// checkpoint on the spare node — interface identities survive, the
	// relocator fences a new epoch, and the victims' bindings re-resolve.
	// The store holds only the victims' checkpoints, and each is rescued
	// at most once: a later OnDead rescues only the keys saved since.
	checkpoints := coordination.NewCheckpointStore()
	rescued := map[string]bool{}
	var rescues atomic.Uint64
	ctl.SetPlan("w0", health.Plan{
		OnDead: func(ctx context.Context, ep string) error {
			breakers.For(ep).Record(false)
			crashMu.Lock()
			var keys []string
			for _, key := range checkpoints.Keys() {
				if !rescued[key] {
					keys, rescued[key] = append(keys, key), true
				}
			}
			crashMu.Unlock()
			for _, key := range keys {
				if _, err := coordination.RecoverCluster(capsules["spare"], checkpoints, key, engineering.ClusterOptions{}); err != nil {
					return err
				}
				rescues.Add(1)
			}
			stamp(recoveredAt, ep)
			return nil
		},
		// The host comes back near the end of the script; re-admission is
		// an administrative acknowledgement, gated by the breaker so a
		// flapping host is re-admitted at most once per open interval.
		OnAlive: func(ctx context.Context, ep string) error { return nil },
	})
	ctl.SetFallbackPlan(health.Plan{})

	det := health.New(health.Config{
		Interval:     cfg.Unit / 4,
		MinTimeout:   cfg.Unit,
		SuspectAfter: 2,
		DeadAfter:    4,
		OnTransition: func(t health.Transition) {
			switch t.To {
			case health.Suspect:
				stamp(suspectAt, t.Endpoint)
			case health.Dead:
				stamp(deadAt, t.Endpoint)
			}
			if cfg.Recovery {
				ctl.Handle(t)
			}
		},
	})
	defer det.Close()
	for _, h := range []string{"w0", "w1", "e0", "e1", "spare", "shard0", "shard2", "rep0", "rep1", "rep2"} {
		host := h
		ep := naming.Endpoint("sim://" + host)
		err := det.Watch(host, func(ctx context.Context) (time.Duration, error) {
			start := time.Now()
			conn, err := net.DialFrom(ctx, "healthd", ep)
			if err != nil {
				return 0, err
			}
			conn.Close()
			return time.Since(start), nil
		})
		if err != nil {
			return rep, err
		}
	}

	// --- probers ---------------------------------------------------------
	// One prober per live object, and two walking the trader's service
	// types; a trader import that errors or finds nothing is a lost
	// lookup, not a reason to stop probing.
	objProbe := newGapProbe(len(objects))
	ctx := context.Background()
	arg := []values.Value{values.Int(1)}
	for i := range objects {
		i, b := i, objects[i].binding
		objProbe.start(func(int) (int, bool, error) {
			if _, _, err := b.Invoke(ctx, "Inc", arg); err != nil {
				time.Sleep(time.Millisecond) // pace fast-fails
				return i, false, nil
			}
			return i, true, nil
		})
	}
	lookupProbe := newGapProbe(cfg.Services)
	for q := 0; q < 2; q++ {
		importNext := e13Prober(fe, q, cfg.Services)
		lookupProbe.start(func(k int) (int, bool, error) {
			i, found, err := importNext(k)
			return i, found && err == nil, nil
		})
	}
	halt := func() {
		objProbe.halt()
		lookupProbe.halt()
	}

	// Warm up: every object answered once, every counter is live.
	if err := objProbe.warm(warmDeadline); err != nil {
		halt()
		return rep, err
	}
	// Checkpoint the victims recovery will rescue, then zero the window
	// counters: only the storm counts.
	crashMu.Lock()
	for _, cl := range victimClusters {
		if err := coordination.CheckpointNow(cl, checkpoints); err != nil {
			crashMu.Unlock()
			halt()
			return rep, err
		}
	}
	crashMu.Unlock()
	objProbe.reset()
	lookupProbe.reset()
	windowStart := time.Now()

	// --- the storm -------------------------------------------------------
	u := cfg.Unit
	wan := netsim.Scale(netsim.Compose(netsim.WANMetro, netsim.WANContinental,
		netsim.LinkProfile{DropRate: 0.004}), cfg.WANScale)
	wanBack := netsim.Scale(wan, 0.5) // asymmetric: the return path is faster
	chaos := netsim.NewChaos(net, netsim.ChaosConfig{
		Seed: cfg.Seed,
		Domains: map[string][]string{
			"west":    {"w0", "w1", "client"},
			"east":    {"e0", "e1"},
			"standby": {"spare"},
		},
		Crash: func(h string) error { stamp(crashAt, h); return nil },
		Restart: func(h string) error {
			l, err := net.Listen(naming.Endpoint("sim://" + h))
			if err != nil {
				return err
			}
			f.own(func() { l.Close() })
			go func() {
				for {
					c, err := l.Accept()
					if err != nil {
						return
					}
					c.Close()
				}
			}()
			return nil
		},
	}, netsim.Script{
		{At: 1 * u, Fault: netsim.Fault{Kind: netsim.FaultLink, A: "dom:west", B: "dom:east",
			Profile: wan, Reverse: &wanBack}},
		{At: 2 * u, Fault: netsim.Fault{Kind: netsim.FaultCrash, A: "rep0"}},
		{At: 5 * u, Fault: netsim.Fault{Kind: netsim.FaultCrash, A: "w0"}},
		{At: 8 * u, Fault: netsim.Fault{Kind: netsim.FaultPartition, A: "dom:standby", B: "dom:east"}},
		{At: 11 * u, Fault: netsim.Fault{Kind: netsim.FaultHeal, A: "dom:standby", B: "dom:east"}},
		{At: 14 * u, Fault: netsim.Fault{Kind: netsim.FaultRestart, A: "w0"}},
		{At: 16 * u, Fault: netsim.Fault{Kind: netsim.FaultLinkClear, A: "dom:west", B: "dom:east"}},
	})
	chaos.Start()

	// The relocation storm: every object in the pool keeps moving around
	// the ring, across the degraded WAN link, while its binding serves.
	pause := 16 * u / time.Duration(cfg.Migrations+1)
	var migrated uint64
	for m := 0; m < cfg.Migrations; m++ {
		o := objects[m%cfg.Objects]
		next := (o.at + 1) % len(ring)
		nk, err := o.cluster.MigrateTo(capsules[ring[next]])
		if err != nil {
			chaos.Stop()
			halt()
			return rep, fmt.Errorf("migration %d (%s): %w", m, o.name, err)
		}
		o.cluster, o.at = nk, next
		migrated++
		if m == cfg.Migrations/2 {
			// Mid-storm ring churn: a shard joins, a shard drains away
			// through the install-before-withdraw path — two ring epochs
			// on top of the health-driven failover.
			err := f.addShard(fe, 3, nil)
			if err == nil {
				err = fe.RemoveShard("s0")
			}
			if err != nil {
				chaos.Stop()
				halt()
				return rep, err
			}
		}
		time.Sleep(pause)
	}
	for !chaos.Done() {
		time.Sleep(time.Millisecond)
	}
	chaos.Stop()

	// The tail: keep probing so trailing gaps close and dead objects show.
	tailStart := time.Now()
	time.Sleep(cfg.Tail)
	halt()
	rep.Window = time.Since(windowStart)

	// --- report ----------------------------------------------------------
	rep.Migrations = migrated
	rep.Rescues = rescues.Load()
	rep.Probes = objProbe.hits.Load()
	rep.Failures = objProbe.misses.Load()
	if rep.Probes+rep.Failures > 0 {
		rep.Availability = float64(rep.Probes) / float64(rep.Probes+rep.Failures)
	}
	rep.MaxBlackout = objProbe.worst()
	rep.MeanBlackout = objProbe.mean()
	rep.DeadObjects = objProbe.darkSince(tailStart)
	rep.LostLookups = lookupProbe.misses.Load()
	rep.TraderLookups = lookupProbe.hits.Load() + rep.LostLookups

	// End-to-end check: every service type must still be importable.
	for i := 0; i < cfg.Services; i++ {
		if e13Import(fe, i) != nil {
			rep.LostLookups++
		}
	}

	crashMu.Lock()
	for _, ep := range []string{"rep0", "w0"} {
		c, ok := crashAt[ep]
		if !ok {
			continue
		}
		if s, ok := suspectAt[ep]; ok && s.Sub(c) > rep.TimeToSuspect {
			rep.TimeToSuspect = s.Sub(c)
		}
		if d, ok := deadAt[ep]; ok && d.Sub(c) > rep.TimeToDead {
			rep.TimeToDead = d.Sub(c)
		}
		if r, ok := recoveredAt[ep]; ok && r.Sub(c) > rep.TimeToRecover {
			rep.TimeToRecover = r.Sub(c)
		}
	}
	crashMu.Unlock()

	st := ctl.Stats()
	rep.RecoveryActions = st.Actions
	rep.RecoveryFailures = st.Failures
	rep.Readmissions = st.Readmissions
	rep.GroupSize = group.Size()
	rep.RingRebalances = fe.ShardStats().Rebalances
	rep.ChaosEvents = len(chaos.Events())
	return rep, nil
}

// Records flattens the result into the unified benchmark-record shape.
func (r E16Result) Records() []Record {
	var out []Record
	for _, m := range []E16Report{r.On, r.Off} {
		out = append(out, Record{
			Experiment: "e16",
			Scenario:   m.Mode,
			Params: map[string]float64{
				"objects": float64(m.Objects),
			},
			Metrics: map[string]float64{
				"migrations":        float64(m.Migrations),
				"rescues":           float64(m.Rescues),
				"probes":            float64(m.Probes),
				"failures":          float64(m.Failures),
				"availability":      m.Availability,
				"max_blackout_us":   float64(m.MaxBlackout.Microseconds()),
				"mean_blackout_us":  float64(m.MeanBlackout.Microseconds()),
				"dead_objects":      float64(m.DeadObjects),
				"trader_lookups":    float64(m.TraderLookups),
				"lost_lookups":      float64(m.LostLookups),
				"tt_suspect_us":     float64(m.TimeToSuspect.Microseconds()),
				"tt_dead_us":        float64(m.TimeToDead.Microseconds()),
				"tt_recover_us":     float64(m.TimeToRecover.Microseconds()),
				"recovery_actions":  float64(m.RecoveryActions),
				"recovery_failures": float64(m.RecoveryFailures),
				"readmissions":      float64(m.Readmissions),
				"group_size":        float64(m.GroupSize),
				"ring_rebalances":   float64(m.RingRebalances),
				"chaos_events":      float64(m.ChaosEvents),
				"window_us":         float64(m.Window.Microseconds()),
			},
		})
	}
	return out
}
