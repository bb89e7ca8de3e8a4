package coordination

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/fanout"
	"repro/internal/mgmt"
	"repro/internal/policy"
	"repro/internal/values"
)

// Group error sentinels.
var (
	ErrEmptyGroup  = errors.New("coordination: replica group has no live members")
	ErrDiverged    = errors.New("coordination: replicas returned divergent results")
	ErrNoSuchGroup = errors.New("coordination: unknown member")
)

// Invoker is the client end of a channel to one replica;
// *channel.Binding satisfies it.
type Invoker interface {
	Invoke(ctx context.Context, op string, args []values.Value) (string, []values.Value, error)
	Close() error
}

// servant is the call shape of an object hosted in this process: a
// *relocator.Servant, a *trader.Servant, a *typerepo.Servant, any
// channel.Handler.
type servant interface {
	Invoke(ctx context.Context, op string, args []values.Value) (string, []values.Value, error)
}

// Member adapts an in-process servant to Invoker, so local replicas and
// channel bindings to remote ones mix freely in one group. Its Close is
// a no-op: the servant's lifecycle belongs to its owner.
func Member(s servant) Invoker { return &localMember{s} }

type localMember struct{ servant }

func (*localMember) Close() error { return nil }

// maxFanout bounds the goroutines any single group operation spawns; a
// fan-out wider than this is served by maxFanout workers pulling members
// from a shared cursor.
const maxFanout = 16

// GroupStats counts replica-group activity.
type GroupStats struct {
	Updates       uint64
	Reads         uint64
	Failovers     uint64 // members skipped or dropped after failure
	Divergences   uint64 // update replies that disagreed across replicas
	SkippedLegs   uint64 // update legs not attempted because a member's circuit was open
	DegradedReads uint64 // reads served with the staleness flag set
}

// MemberPolicy is the group's failure policy: per-member circuit breakers
// (keyed by member name, typically shared with other groups through one
// BreakerSet) and what to do with members that fail.
type MemberPolicy struct {
	// Breakers gates each member: an update skips members whose breaker is
	// open instead of burning a timeout on them, and the member's half-open
	// probe is re-admitted through OnRejoin.
	Breakers *policy.BreakerSet
	// Retain keeps failed members in the group (recorded against their
	// breaker) instead of dropping and closing them — the mode that lets a
	// crashed replica rejoin after restart. Without breakers, retained dead
	// members are retried on every update, so Retain normally rides with
	// Breakers.
	Retain bool
	// OnRejoin, when set, runs before a member whose breaker grants its
	// half-open probe participates in an update again — the hook where the
	// returning replica's state is caught up (checkpoint recovery, state
	// transfer). A non-nil error counts as a failed probe: the breaker
	// re-opens and the member sits out this update.
	OnRejoin func(ctx context.Context, name string, inv Invoker) error
}

// ReadMeta describes how a degraded-capable read was served.
type ReadMeta struct {
	Member    string // replica that answered
	Stale     bool   // answer may lag: members were skipped/failed, or quorum is gone
	Skipped   int    // members passed over because their circuit was open
	Failovers int    // members that failed before one answered
}

// ReplicaGroup realises replication transparency (Section 9): it
// "maintains consistency of a group of replica objects with a common
// interface" while presenting the interface of a single object.
//
// The mechanism is active replication behind a sequencer: the group proxy
// serialises updates (it is the sequencer) and applies each to every live
// replica in the same order, so deterministic replicas stay identical.
// The sequencer holds the group lock only long enough to assign the
// update its place in the total order and snapshot the membership; the
// update itself then fans out to all replicas concurrently, so one update
// costs max(replica round trip), not the sum. A per-group ticket keeps
// fan-outs strictly in sequence order — replica i receives update k+1
// only after every replica has finished update k — which is what keeps
// deterministic replicas identical under concurrent callers.
//
// Replies are compared; divergence is counted and reported. Reads go to a
// single replica, rotating for load and failing over on error, without
// ever waiting behind the sequencer — so a slow replica delays its own
// readers, not every reader. A read that overlaps an in-flight update may
// observe the pre-update state; reads after Invoke returns see the update
// on every replica.
//
// The group holds one Invoker per replica interface, not per connection:
// when the members are channel bindings created over a shared session
// manager (transparency.Env.Sessions), fan-out to co-located replicas
// multiplexes over one transport session per node, so adding replicas on
// a node adds bindings, not connections.
type ReplicaGroup struct {
	mu      sync.Mutex
	members []member
	next    int    // read rotation cursor
	ticket  uint64 // next update sequence number to hand out

	// The sequencer's admission gate: fan-outs run one at a time, in
	// ticket order.
	seqMu   sync.Mutex
	seqCond *sync.Cond
	serving uint64 // ticket currently admitted to fan out

	peak int // largest membership ever seen; the quorum baseline

	updates       atomic.Uint64
	reads         atomic.Uint64
	failovers     atomic.Uint64
	divergences   atomic.Uint64
	skippedLegs   atomic.Uint64
	degradedReads atomic.Uint64

	insp atomic.Pointer[mgmt.GroupInstruments]
	mpol atomic.Pointer[MemberPolicy]
}

// SetMemberPolicy attaches (nil detaches) the group's failure policy.
// Safe to call at any time; updates snapshot it per invocation.
func (g *ReplicaGroup) SetMemberPolicy(mp *MemberPolicy) {
	g.mpol.Store(mp)
}

// Instrument attaches management instruments to the group (update spans,
// per-replica child spans, fan-out metrics). Safe to call at any time;
// nil detaches.
func (g *ReplicaGroup) Instrument(ins *mgmt.GroupInstruments) {
	g.insp.Store(ins)
}

type member struct {
	name string
	inv  Invoker
}

// NewReplicaGroup returns an empty group.
func NewReplicaGroup() *ReplicaGroup {
	g := &ReplicaGroup{}
	g.seqCond = sync.NewCond(&g.seqMu)
	return g
}

// Add attaches a replica under a unique name.
func (g *ReplicaGroup) Add(name string, inv Invoker) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, m := range g.members {
		if m.name == name {
			return fmt.Errorf("coordination: member %q already in group", name)
		}
	}
	g.members = append(g.members, member{name: name, inv: inv})
	if len(g.members) > g.peak {
		g.peak = len(g.members)
	}
	return nil
}

// Remove detaches a replica and closes its channel.
func (g *ReplicaGroup) Remove(name string) error {
	g.mu.Lock()
	for i, m := range g.members {
		if m.name == name {
			copy(g.members[i:], g.members[i+1:])
			last := len(g.members) - 1
			g.members[last] = member{} // clear the vacated slot
			g.members = g.members[:last]
			g.mu.Unlock()
			return m.inv.Close()
		}
	}
	g.mu.Unlock()
	return fmt.Errorf("%w: %q", ErrNoSuchGroup, name)
}

// Size returns the number of attached replicas.
func (g *ReplicaGroup) Size() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.members)
}

// reply is one replica's answer to a fanned-out update.
type reply struct {
	term string
	res  []values.Value
	err  error
}

// invokeAll invokes op on every member of snap concurrently (bounded at
// maxFanout goroutines) and returns the collected replies, index-aligned
// with snap.
func invokeAll(ctx context.Context, tr *mgmt.Tracer, snap []member, op string, args []values.Value) []reply {
	replies := make([]reply, len(snap))
	// invokeOne runs one replica's leg under its own child span, so a trace
	// shows each replica's round trip separately inside the update.
	invokeOne := func(i int) {
		// The span name is built only when tracing: the concatenation would
		// otherwise allocate on every uninstrumented leg.
		cctx := ctx
		var sp *mgmt.ActiveSpan
		if tr != nil {
			cctx, sp = tr.Start(ctx, "replica:"+snap[i].name)
		}
		r := &replies[i]
		r.term, r.res, r.err = snap[i].inv.Invoke(cctx, op, args)
		sp.Fail(r.err)
		sp.End()
	}
	if len(snap) == 1 {
		invokeOne(0)
		return replies
	}
	fanout.Do(len(snap), maxFanout, invokeOne)
	return replies
}

// Invoke applies an update to every replica in one total order (the
// ticket is the sequencer). Failed replicas are dropped from the group on
// completion — that is the failure-masking half of replication
// transparency. The reply is the first successful one; disagreement among
// successful replies is counted as divergence and reported as an error.
func (g *ReplicaGroup) Invoke(ctx context.Context, op string, args []values.Value) (string, []values.Value, error) {
	g.updates.Add(1)
	ins := g.insp.Load()
	var tr *mgmt.Tracer
	if ins != nil {
		tr = ins.Tracer
	}

	// Serial section: assign the sequence number, snapshot the membership.
	g.mu.Lock()
	if len(g.members) == 0 {
		g.mu.Unlock()
		return "", nil, ErrEmptyGroup
	}
	ticket := g.ticket
	g.ticket++
	snap := make([]member, len(g.members))
	copy(snap, g.members)
	g.mu.Unlock()

	// The update span covers the wait for the total order plus the whole
	// fan-out; each replica leg is a child span.
	uctx := ctx
	var usp *mgmt.ActiveSpan
	if tr != nil {
		uctx, usp = tr.Start(ctx, "replica.update:"+op)
	}

	// Wait for this update's place in the total order, fan out, release.
	g.seqMu.Lock()
	for g.serving != ticket {
		g.seqCond.Wait()
	}
	g.seqMu.Unlock()

	// Inside the sequence slot: gate each member on its breaker. Members
	// whose circuit is open sit the update out (a skipped leg, not a
	// failure); a member granted its half-open probe is first caught up by
	// OnRejoin, so it re-enters having seen every update before this one.
	mp := g.mpol.Load()
	legs := snap
	var brs []*policy.Breaker
	skipped := 0
	if mp != nil && mp.Breakers != nil {
		legs = make([]member, 0, len(snap))
		brs = make([]*policy.Breaker, 0, len(snap))
		for _, m := range snap {
			br := mp.Breakers.For(m.name)
			ok, probe := br.Allow()
			if !ok {
				skipped++
				continue
			}
			if probe && mp.OnRejoin != nil {
				if rerr := mp.OnRejoin(uctx, m.name, m.inv); rerr != nil {
					br.Record(false)
					skipped++
					continue
				}
			}
			legs = append(legs, m)
			brs = append(brs, br)
		}
	}
	var replies []reply
	if len(legs) > 0 {
		replies = invokeAll(uctx, tr, legs, op, args)
	}

	g.seqMu.Lock()
	g.serving++
	g.seqMu.Unlock()
	g.seqCond.Broadcast()

	for i := range brs {
		brs[i].Record(replies[i].err == nil)
	}
	if skipped > 0 {
		g.skippedLegs.Add(uint64(skipped))
	}
	if len(legs) == 0 {
		err := fmt.Errorf("%w: all %d replicas of the group", policy.ErrCircuitOpen, len(snap))
		usp.Fail(err)
		endUpdate(ins, usp)
		return "", nil, err
	}

	// Post-processing is local: detect divergence on the collected set,
	// then drop the replicas that failed (unless the policy retains them
	// for a later rejoin).
	var first *reply
	var failed []member
	diverged := false
	for i := range replies {
		r := &replies[i]
		if r.err != nil {
			failed = append(failed, legs[i])
			continue
		}
		if first == nil {
			first = r
			continue
		}
		if r.term != first.term || len(r.res) != len(first.res) {
			diverged = true
			continue
		}
		for j := range r.res {
			if !r.res[j].Equal(first.res[j]) {
				diverged = true
				break
			}
		}
	}
	if len(failed) > 0 {
		g.failovers.Add(uint64(len(failed)))
		if mp == nil || !mp.Retain {
			g.drop(failed)
			for _, m := range failed {
				_ = m.inv.Close()
			}
		}
	}
	if first == nil {
		usp.Fail(ErrEmptyGroup)
		endUpdate(ins, usp)
		return "", nil, ErrEmptyGroup
	}
	if diverged {
		g.divergences.Add(1)
		err := fmt.Errorf("%w: operation %s", ErrDiverged, op)
		usp.Fail(err)
		endUpdate(ins, usp)
		return "", nil, err
	}
	endUpdate(ins, usp)
	return first.term, first.res, nil
}

// endUpdate finishes an update span and feeds its duration to the group's
// latency histogram (both halves tolerate the disabled, nil case).
func endUpdate(ins *mgmt.GroupInstruments, usp *mgmt.ActiveSpan) {
	d := usp.End()
	if ins != nil {
		ins.UpdateLatency.ObserveDuration(d)
	}
}

// drop removes the given members, matching by identity as well as name so
// a replica re-added under a reused name is not removed by a stale
// failure. Vacated tail slots are cleared so dropped invokers can be
// collected.
func (g *ReplicaGroup) drop(failed []member) {
	g.mu.Lock()
	kept := g.members[:0]
	for _, m := range g.members {
		dead := false
		for _, f := range failed {
			if f.name == m.name && f.inv == m.inv {
				dead = true
				break
			}
		}
		if !dead {
			kept = append(kept, m)
		}
	}
	for i := len(kept); i < len(g.members); i++ {
		g.members[i] = member{}
	}
	g.members = kept
	g.mu.Unlock()
}

// InvokeRead sends a read-only operation to one replica, rotating across
// members and failing over (and, without a retaining member policy,
// dropping) dead ones. The group lock is held only to pick the replica,
// never across the network call, so readers proceed in parallel with
// each other and with in-flight updates.
func (g *ReplicaGroup) InvokeRead(ctx context.Context, op string, args []values.Value) (string, []values.Value, error) {
	term, res, _, err := g.InvokeReadMeta(ctx, op, args)
	return term, res, err
}

// InvokeReadMeta is InvokeRead plus the degraded-read metadata of failure
// transparency's weak mode: when replicas are partitioned away or
// circuit-open, the read is still served from a surviving replica, but
// the answer is flagged Stale — it may predate updates the unreachable
// majority could have seen. One full rotation over the membership
// snapshot bounds the attempt count.
func (g *ReplicaGroup) InvokeReadMeta(ctx context.Context, op string, args []values.Value) (string, []values.Value, ReadMeta, error) {
	g.reads.Add(1)
	var meta ReadMeta
	mp := g.mpol.Load()

	g.mu.Lock()
	if len(g.members) == 0 {
		g.mu.Unlock()
		return "", nil, meta, ErrEmptyGroup
	}
	snap := make([]member, len(g.members))
	copy(snap, g.members)
	start := g.next % len(snap)
	g.next = (start + 1) % len(snap)
	peak := g.peak
	g.mu.Unlock()

	var lastErr error
	for k := 0; k < len(snap); k++ {
		m := snap[(start+k)%len(snap)]
		var br *policy.Breaker
		if mp != nil && mp.Breakers != nil {
			br = mp.Breakers.For(m.name)
			ok, probe := br.Allow()
			if !ok {
				meta.Skipped++
				lastErr = fmt.Errorf("%w: replica %s", policy.ErrCircuitOpen, m.name)
				continue
			}
			if probe && mp.OnRejoin != nil {
				// Re-admitting this member is the update path's job: only
				// there does OnRejoin replay missed state inside the update
				// sequence. A read that closed the breaker here would let a
				// stale replica rejoin the fan-out and diverge. Hand the
				// probe token back and read from a survivor instead.
				br.ReturnProbe()
				meta.Skipped++
				lastErr = fmt.Errorf("%w: replica %s awaiting rejoin", policy.ErrCircuitOpen, m.name)
				continue
			}
		}
		term, res, err := m.inv.Invoke(ctx, op, args)
		if br != nil {
			br.Record(err == nil)
		}
		if err == nil {
			meta.Member = m.name
			// Stale when the rotation had to pass over dead or circuit-open
			// members, or when the survivors no longer form a majority of
			// the group's peak membership — either way updates may exist
			// that this replica has not seen.
			live := len(snap) - meta.Skipped - meta.Failovers
			meta.Stale = meta.Skipped+meta.Failovers > 0 || live*2 <= peak
			if meta.Stale {
				g.degradedReads.Add(1)
				if ins := g.insp.Load(); ins != nil && ins.Tracer != nil {
					// The staleness flag in the trace: a zero-length
					// marker span under the read's context.
					_, sp := ins.Tracer.Start(ctx, "replica.read.stale:"+m.name)
					sp.End()
				}
			}
			return term, res, meta, nil
		}
		meta.Failovers++
		g.failovers.Add(1)
		lastErr = err
		if ctx.Err() != nil {
			return "", nil, meta, ctx.Err()
		}
		if mp == nil || !mp.Retain {
			g.drop([]member{m})
			_ = m.inv.Close()
		}
	}
	if lastErr == nil {
		lastErr = ErrEmptyGroup
	}
	return "", nil, meta, lastErr
}

// Close releases every member channel.
func (g *ReplicaGroup) Close() error {
	g.mu.Lock()
	members := g.members
	g.members = nil
	g.mu.Unlock()
	var first error
	for _, m := range members {
		if err := m.inv.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats returns a snapshot of group counters.
func (g *ReplicaGroup) Stats() GroupStats {
	return GroupStats{
		Updates:       g.updates.Load(),
		Reads:         g.reads.Load(),
		Failovers:     g.failovers.Load(),
		Divergences:   g.divergences.Load(),
		SkippedLegs:   g.skippedLegs.Load(),
		DegradedReads: g.degradedReads.Load(),
	}
}
