package coordination

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/policy"
	"repro/internal/values"
)

// FailoverGroup is the primary-backup form of the group function: all
// invocations go to the primary member; when it fails, the next member is
// promoted and the invocation retried there. Unlike the actively
// replicated ReplicaGroup, backups receive no traffic — state continuity
// across a promotion comes from the checkpoint-and-recovery function
// (re-instantiate the failed primary's cluster at the backup's node
// before or during promotion), which the OnPromote hook exists to drive.
type FailoverGroup struct {
	// OnPromote, when set, runs before the newly promoted member serves
	// its first invocation; a typical hook recovers the primary's last
	// checkpoint into the backup (coordination.RecoverCluster). When it
	// fails, that invocation returns its error and the next one runs it
	// again before the member serves.
	OnPromote func(name string) error
	// Policy paces the fail-over loop: its budget bounds the whole
	// invocation (all promotions included), its backoff separates
	// consecutive attempts, and a non-zero MaxAttempts caps how many
	// members are tried. Set before first use; the zero value is the
	// immediate cascade through every member, bounded only by the
	// caller's context.
	Policy policy.RetryPolicy

	membership
	promotions atomic.Uint64
	recovery   sync.Mutex // held while OnPromote runs: one recovery at a time
}

// NewFailoverGroup returns an empty group; the first member added becomes
// the primary.
func NewFailoverGroup() *FailoverGroup { return &FailoverGroup{} }

// Primary returns the current primary's name ("" when the group is empty).
func (g *FailoverGroup) Primary() string {
	if v := g.load(); len(v.members) > 0 {
		return v.members[0].name
	}
	return ""
}

// Promotions returns how many fail-overs have occurred.
func (g *FailoverGroup) Promotions() uint64 { return g.promotions.Load() }

// Invoke sends the operation to the primary, failing over through the
// backups until one answers. No lock is held across the network call,
// so concurrent invocations proceed in parallel against the primary.
// When the primary fails under several callers at once, exactly one of
// them demotes it and promotes the next member (a compare-and-swap of
// the membership; the others observe the new primary and retry), so
// promotions stay race-free.
func (g *FailoverGroup) Invoke(ctx context.Context, op string, args []values.Value) (string, []values.Value, error) {
	pol := g.Policy
	ctx, cancel := pol.WithBudget(ctx)
	defer cancel()
	attempt := 0
	for {
		v := g.load()
		if len(v.members) == 0 {
			return "", nil, ErrEmptyGroup
		}
		primary := v.members[0]
		if v.unrecovered {
			// The promoted member serves nothing before its state is
			// recovered; one caller runs the hook, the rest wait for it.
			if err := g.recover(primary); err != nil {
				return "", nil, err
			}
			continue
		}
		term, res, err := primary.inv.Invoke(ctx, op, args)
		if err == nil {
			return term, res, nil
		}
		if ctx.Err() != nil {
			return "", nil, ctx.Err()
		}
		attempt++
		if pol.MaxAttempts > 0 && attempt >= pol.MaxAttempts {
			return "", nil, err
		}
		// Primary is gone: drop it and promote the next member — unless a
		// concurrent caller already did (then just retry the new primary).
		if g.change(func(v view) (view, bool) {
			if len(v.members) == 0 || v.members[0] != primary {
				return v, false
			}
			v.members = append([]member(nil), v.members[1:]...)
			v.unrecovered = g.OnPromote != nil && len(v.members) > 0
			return v, true
		}) {
			g.promotions.Add(1)
			_ = primary.inv.Close()
		}
		// Pace the retry against the freshly promoted member, whose
		// recovery runs first.
		if werr := policy.Wait(ctx, pol.Backoff(attempt)); werr != nil {
			return "", nil, werr
		}
	}
}

// recover runs OnPromote for primary unless another caller already has,
// and marks the primary recovered when the hook succeeds.
func (g *FailoverGroup) recover(primary member) error {
	g.recovery.Lock()
	defer g.recovery.Unlock()
	if v := g.load(); !v.unrecovered || len(v.members) == 0 || v.members[0] != primary {
		return nil
	}
	if err := g.OnPromote(primary.name); err != nil {
		return fmt.Errorf("coordination: promotion of %q failed: %w", primary.name, err)
	}
	g.change(func(v view) (view, bool) {
		ok := v.unrecovered && len(v.members) > 0 && v.members[0] == primary
		v.unrecovered = false
		return v, ok
	})
	return nil
}
