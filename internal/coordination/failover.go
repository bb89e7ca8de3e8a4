package coordination

import (
	"context"
	"fmt"
	"sync"

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

	mu         sync.Mutex
	members    []member
	promotions uint64
	// unrecovered is set from a promotion until OnPromote has succeeded
	// for the primary: until then the primary serves nothing, and every
	// invocation runs the hook again first.
	unrecovered bool
}

// NewFailoverGroup returns an empty group; the first member added becomes
// the primary.
func NewFailoverGroup() *FailoverGroup { return &FailoverGroup{} }

// Add appends a member (primary first, then backups in promotion order).
func (g *FailoverGroup) Add(name string, inv Invoker) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, m := range g.members {
		if m.name == name {
			return fmt.Errorf("coordination: member %q already in group", name)
		}
	}
	g.members = append(g.members, member{name: name, inv: inv})
	return nil
}

// Size returns the number of live members.
func (g *FailoverGroup) Size() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.members)
}

// Primary returns the current primary's name ("" when the group is empty).
func (g *FailoverGroup) Primary() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.members) == 0 {
		return ""
	}
	return g.members[0].name
}

// Promotions returns how many fail-overs have occurred.
func (g *FailoverGroup) Promotions() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.promotions
}

// Invoke sends the operation to the primary, failing over through the
// backups until one answers. The group lock is held only to read the
// primary and to promote — never across the network call — so concurrent
// invocations proceed in parallel against the primary. When the primary
// fails under several callers at once, exactly one of them performs the
// demotion and promotion (the others observe the new primary and retry),
// so promotions stay race-free.
func (g *FailoverGroup) Invoke(ctx context.Context, op string, args []values.Value) (string, []values.Value, error) {
	pol := g.Policy
	ctx, cancel := pol.WithBudget(ctx)
	defer cancel()
	attempt := 0
	for {
		g.mu.Lock()
		if len(g.members) == 0 {
			g.mu.Unlock()
			return "", nil, ErrEmptyGroup
		}
		primary := g.members[0]
		if g.unrecovered {
			// The hook runs under the lock: the promoted member must not
			// serve an invocation before its state is recovered.
			if perr := g.OnPromote(primary.name); perr != nil {
				g.mu.Unlock()
				return "", nil, fmt.Errorf("coordination: promotion of %q failed: %w", primary.name, perr)
			}
			g.unrecovered = false
		}
		g.mu.Unlock()
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
		g.mu.Lock()
		if len(g.members) > 0 && g.members[0].inv == primary.inv {
			_ = primary.inv.Close()
			copy(g.members, g.members[1:])
			last := len(g.members) - 1
			g.members[last] = member{} // clear the vacated slot
			g.members = g.members[:last]
			g.promotions++
			g.unrecovered = g.OnPromote != nil && len(g.members) > 0
		}
		g.mu.Unlock()
		// Pace the retry against the freshly promoted member, whose
		// recovery runs first.
		if werr := policy.Wait(ctx, pol.Backoff(attempt)); werr != nil {
			return "", nil, werr
		}
	}
}

// Close releases every member channel.
func (g *FailoverGroup) Close() error {
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
