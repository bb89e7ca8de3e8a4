package engineering

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/naming"
)

// Capsule is a set of clusters with their cluster managers plus the
// capsule manager. The Capsule type *is* the capsule manager's interface:
// its methods are the capsule-management functions of Section 8.1
// (instantiating, checkpointing and deactivating clusters).
type Capsule struct {
	node *Node
	id   naming.CapsuleID

	mu          sync.Mutex
	clusters    map[uint32]*Cluster
	nextCluster uint32
	deleted     bool
}

// ID returns the capsule identifier.
func (c *Capsule) ID() naming.CapsuleID { return c.id }

// Node returns the node supporting this capsule.
func (c *Capsule) Node() *Node { return c.node }

// ClusterOptions configures a new cluster.
type ClusterOptions struct {
	// AutoReactivate makes the cluster reactivate on demand when a call
	// arrives while it is deactivated — the engineering mechanism behind
	// persistence transparency (Section 9). Without it, calls to a
	// deactivated cluster fail with channel.CodeUnavailable.
	AutoReactivate bool
}

// CreateCluster instantiates an empty cluster (with its cluster manager).
func (c *Capsule) CreateCluster(opts ClusterOptions) (*Cluster, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.deleted {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchCapsule, c.id)
	}
	if max := c.node.cfg.MaxClustersPerCapsule; max > 0 && len(c.clusters) >= max {
		return nil, fmt.Errorf("%w: capsule %s allows %d clusters", ErrStructuringLimit, c.id, max)
	}
	seq := c.nextCluster
	c.nextCluster++
	k := &Cluster{
		capsule: c,
		id:      naming.ClusterID{Capsule: c.id, Seq: seq},
		opts:    opts,
		objects: make(map[uint32]*Object),
		state:   clusterActive,
	}
	k.idle.L = &k.mu
	c.clusters[seq] = k
	return k, nil
}

// Cluster returns the cluster with the given sequence number.
func (c *Capsule) Cluster(seq uint32) (*Cluster, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k, ok := c.clusters[seq]
	if !ok {
		return nil, fmt.Errorf("%w: %d in capsule %s", ErrNoSuchCluster, seq, c.id)
	}
	return k, nil
}

// Clusters returns the capsule's clusters ordered by sequence number.
func (c *Capsule) Clusters() []*Cluster {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Cluster, 0, len(c.clusters))
	for _, k := range c.clusters {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id.Seq < out[j].id.Seq })
	return out
}

// Checkpoint captures every cluster in the capsule (the capsule-management
// checkpoint function).
func (c *Capsule) Checkpoint() ([]*ClusterCheckpoint, error) {
	var out []*ClusterCheckpoint
	for _, k := range c.Clusters() {
		ck, err := k.Checkpoint()
		if err != nil {
			return nil, err
		}
		out = append(out, ck)
	}
	return out, nil
}

// Instantiate re-creates a cluster from a checkpoint — the other half of
// migration and of reactivating a deactivated capsule on a new node. The
// re-created cluster preserves every interface identity from the
// checkpoint; interface locations are moved to this node in the location
// registry, last, so that bindings elsewhere can re-resolve. A failed
// instantiation leaves no cluster behind and, short of the relocator's own
// failure, no location moved.
func (c *Capsule) Instantiate(ck *ClusterCheckpoint, opts ClusterOptions) (*Cluster, error) {
	k, err := c.CreateCluster(opts)
	if err != nil {
		return nil, err
	}
	if err := k.restore(ck); err != nil {
		k.withdraw()
		return nil, err
	}
	return k, nil
}

// DeleteCluster deletes a cluster and all its objects.
func (c *Capsule) DeleteCluster(seq uint32) error {
	c.mu.Lock()
	k, ok := c.clusters[seq]
	if ok {
		delete(c.clusters, seq)
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d in capsule %s", ErrNoSuchCluster, seq, c.id)
	}
	k.delete()
	return nil
}

// removeCluster detaches a withdrawn cluster.
func (c *Capsule) removeCluster(seq uint32) {
	c.mu.Lock()
	delete(c.clusters, seq)
	c.mu.Unlock()
}

// deleteAll tears down every cluster (used when the capsule or node dies).
func (c *Capsule) deleteAll() {
	c.mu.Lock()
	c.deleted = true
	ks := make([]*Cluster, 0, len(c.clusters))
	for _, k := range c.clusters {
		ks = append(ks, k)
	}
	c.clusters = map[uint32]*Cluster{}
	c.mu.Unlock()
	for _, k := range ks {
		k.delete()
	}
}
