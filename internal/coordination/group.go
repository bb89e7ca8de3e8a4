package coordination

import (
	"context"
	"errors"
	"fmt"
	"slices"
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

// member is one replica or backup: its unique name and its channel.
type member struct {
	name string
	inv  Invoker
}

// view is one published membership. Nothing writes a view, or the member
// slice it holds, once it is published: a change builds the next view and
// swaps it in whole.
type view struct {
	members []member
	peak    int // largest membership ever seen; the quorum baseline
	// unrecovered marks a FailoverGroup primary that was promoted and has
	// not yet been recovered by OnPromote. It changes with the promotion,
	// in one swap, so no caller can see the new primary without it.
	unrecovered bool
}

// membership is the member list both group forms share. Readers load the
// current view without a lock and without a copy.
type membership struct{ cur atomic.Pointer[view] }

func (g *membership) load() view {
	if v := g.cur.Load(); v != nil {
		return *v
	}
	return view{}
}

// change publishes the view f makes of the current one, retrying from the
// newer view when a concurrent change got there first. f reports whether
// it changes anything; nothing is published when it does not.
func (g *membership) change(f func(v view) (view, bool)) bool {
	for {
		old := g.cur.Load()
		var v view
		if old != nil {
			v = *old
		}
		next, ok := f(v)
		if !ok {
			return false
		}
		next.peak = max(next.peak, len(next.members))
		if g.cur.CompareAndSwap(old, &next) {
			return true
		}
	}
}

// remove publishes the current view without the members gone picks and
// returns them, so the caller that removed a member is the one that
// closes it.
func (g *membership) remove(gone func(member) bool) []member {
	var removed []member
	g.change(func(v view) (view, bool) {
		removed = nil
		kept := make([]member, 0, len(v.members))
		for _, m := range v.members {
			if gone(m) {
				removed = append(removed, m)
			} else {
				kept = append(kept, m)
			}
		}
		v.members = kept
		return v, len(removed) > 0
	})
	return removed
}

// Add attaches a member under a unique name. A FailoverGroup promotes its
// members in the order they were added, the first being the primary.
func (g *membership) Add(name string, inv Invoker) error {
	var err error
	g.change(func(v view) (view, bool) {
		for _, m := range v.members {
			if m.name == name {
				err = fmt.Errorf("coordination: member %q already in group", name)
				return v, false
			}
		}
		v.members = append(slices.Clip(v.members), member{name: name, inv: inv})
		return v, true
	})
	return err
}

// Size returns the number of members.
func (g *membership) Size() int { return len(g.load().members) }

// Close releases every member channel.
func (g *membership) Close() error {
	var first error
	for _, m := range g.remove(func(member) bool { return true }) {
		if err := m.inv.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ReplicaGroup realises replication transparency (Section 9): it
// "maintains consistency of a group of replica objects with a common
// interface" while presenting the interface of a single object.
//
// The mechanism is active replication behind a sequencer: the group proxy
// serialises updates (it is the sequencer) and applies each to every live
// replica in the same order, so deterministic replicas stay identical.
// The sequencer is one slot that an update holds from before it reads the
// membership until it has recorded every replica's outcome and dropped
// the replicas that failed; an update whose context ends while it waits
// for the slot returns ctx.Err() and is applied nowhere. Inside the slot
// the update fans out to all replicas concurrently, so one update costs
// max(replica round trip), not the sum. Replica i therefore receives
// update k+1 only after every replica has finished update k, and update
// k+1 reaches no replica that failed update k — which is what keeps
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
	membership
	slot chan struct{} // the sequencer: full while an update is in it
	next atomic.Uint64 // read rotation cursor

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

// NewReplicaGroup returns an empty group.
func NewReplicaGroup() *ReplicaGroup {
	return &ReplicaGroup{slot: make(chan struct{}, 1)}
}

// Remove detaches a replica and closes its channel.
func (g *ReplicaGroup) Remove(name string) error {
	gone := g.remove(func(m member) bool { return m.name == name })
	if len(gone) == 0 {
		return fmt.Errorf("%w: %q", ErrNoSuchGroup, name)
	}
	return gone[0].inv.Close()
}

// drop removes and closes the given members, matching by identity as
// well as name so a replica re-added under a reused name is not removed
// by a stale failure.
func (g *ReplicaGroup) drop(failed []member) {
	for _, m := range g.remove(func(m member) bool { return slices.Contains(failed, m) }) {
		_ = m.inv.Close()
	}
}

// reply is one replica's answer to a fanned-out update.
type reply struct {
	term string
	res  []values.Value
	err  error
}

// invokeAll invokes op on every member of legs concurrently (bounded at
// maxFanout goroutines) and returns the collected replies, index-aligned
// with legs.
func invokeAll(ctx context.Context, tr *mgmt.Tracer, legs []member, op string, args []values.Value) []reply {
	replies := make([]reply, len(legs))
	if len(legs) == 1 {
		invokeLeg(ctx, tr, legs[0], &replies[0], op, args)
		return replies
	}
	fanout.Do(len(legs), maxFanout, func(i int) { invokeLeg(ctx, tr, legs[i], &replies[i], op, args) })
	return replies
}

// invokeLeg runs one replica's leg under its own child span, so a trace
// shows each replica's round trip separately inside the update.
func invokeLeg(ctx context.Context, tr *mgmt.Tracer, m member, r *reply, op string, args []values.Value) {
	// The span name is built only when tracing: the concatenation would
	// otherwise allocate on every uninstrumented leg.
	var sp *mgmt.ActiveSpan
	if tr != nil {
		ctx, sp = tr.Start(ctx, "replica:"+m.name)
	}
	r.term, r.res, r.err = m.inv.Invoke(ctx, op, args)
	sp.Fail(r.err)
	sp.End()
}

// enter takes the sequencer's slot, or returns ctx.Err() when the
// caller's context ends first.
func (g *ReplicaGroup) enter(ctx context.Context) error {
	select {
	case g.slot <- struct{}{}:
		if err := ctx.Err(); err != nil { // both were ready: do not apply
			<-g.slot
			return err
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Invoke applies an update to every replica in one total order (the slot
// is the sequencer). Failed replicas are dropped from the group before
// the next update starts — that is the failure-masking half of
// replication transparency. The reply is the first successful one;
// disagreement among successful replies is counted as divergence and
// reported as an error.
func (g *ReplicaGroup) Invoke(ctx context.Context, op string, args []values.Value) (string, []values.Value, error) {
	g.updates.Add(1)
	ins := g.insp.Load()
	var tr *mgmt.Tracer
	if ins != nil {
		tr = ins.Tracer
	}

	// The update span covers the wait for the slot plus the whole fan-out;
	// each replica leg is a child span.
	uctx := ctx
	var usp *mgmt.ActiveSpan
	if tr != nil {
		uctx, usp = tr.Start(ctx, "replica.update:"+op)
	}
	fail := func(err error) (string, []values.Value, error) {
		usp.Fail(err)
		endUpdate(ins, usp)
		return "", nil, err
	}
	if err := g.enter(ctx); err != nil {
		return fail(err)
	}

	// Inside the slot: gate each member on its breaker. Members whose
	// circuit is open sit the update out (a skipped leg, not a failure); a
	// member granted its half-open probe is first caught up by OnRejoin,
	// so it re-enters having seen every update before this one.
	members := g.load().members
	mp := g.mpol.Load()
	legs := members
	var brs []*policy.Breaker
	skipped := 0
	if mp != nil && mp.Breakers != nil {
		legs = make([]member, 0, len(members))
		brs = make([]*policy.Breaker, 0, len(members))
		for _, m := range members {
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
	replies := invokeAll(uctx, tr, legs, op, args)
	// Settle the update before leaving the slot: each outcome reaches its
	// breaker and the failed members leave the group (unless the policy
	// retains them for a later rejoin), so the next update sees both.
	var first *reply
	var failed []member
	diverged := false
	for i := range replies {
		r := &replies[i]
		if brs != nil {
			brs[i].Record(r.err == nil)
		}
		switch {
		case r.err != nil:
			failed = append(failed, legs[i])
		case first == nil:
			first = r
		case r.term != first.term || !slices.EqualFunc(r.res, first.res, values.Value.Equal):
			diverged = true
		}
	}
	if len(failed) > 0 && (mp == nil || !mp.Retain) {
		g.drop(failed)
	}
	<-g.slot

	g.failovers.Add(uint64(len(failed)))
	g.skippedLegs.Add(uint64(skipped))
	switch {
	case len(legs) == 0 && skipped > 0:
		return fail(fmt.Errorf("%w: all %d replicas of the group", policy.ErrCircuitOpen, skipped))
	case first == nil:
		return fail(ErrEmptyGroup)
	case diverged:
		g.divergences.Add(1)
		return fail(fmt.Errorf("%w: operation %s", ErrDiverged, op))
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

// InvokeRead sends a read-only operation to one replica, rotating across
// members and failing over (and, without a retaining member policy,
// dropping) dead ones. It loads the membership without a lock, so readers
// proceed in parallel with each other and with in-flight updates.
func (g *ReplicaGroup) InvokeRead(ctx context.Context, op string, args []values.Value) (string, []values.Value, error) {
	term, res, _, err := g.InvokeReadMeta(ctx, op, args)
	return term, res, err
}

// InvokeReadMeta is InvokeRead plus the degraded-read metadata of failure
// transparency's weak mode: when replicas are partitioned away or
// circuit-open, the read is still served from a surviving replica, but
// the answer is flagged Stale — it may predate updates the unreachable
// majority could have seen. One full rotation over the membership
// the read loaded bounds the attempt count.
func (g *ReplicaGroup) InvokeReadMeta(ctx context.Context, op string, args []values.Value) (string, []values.Value, ReadMeta, error) {
	g.reads.Add(1)
	var meta ReadMeta
	mp := g.mpol.Load()

	v := g.load()
	n := len(v.members)
	if n == 0 {
		return "", nil, meta, ErrEmptyGroup
	}
	start := int((g.next.Add(1) - 1) % uint64(n))

	var lastErr error
	for k := 0; k < n; k++ {
		m := v.members[(start+k)%n]
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
			live := n - meta.Skipped - meta.Failovers
			meta.Stale = meta.Skipped+meta.Failovers > 0 || live*2 <= v.peak
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
		}
	}
	if lastErr == nil {
		lastErr = ErrEmptyGroup
	}
	return "", nil, meta, lastErr
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
