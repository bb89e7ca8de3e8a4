package coordination

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/engineering"
)

// ErrNoCheckpoint reports a recovery from a cluster key with no checkpoint.
var ErrNoCheckpoint = errors.New("coordination: no checkpoint for cluster")

// CheckpointStore is the stable repository of cluster checkpoints used by
// the checkpoint-and-recovery function. Keys are cluster identities at
// capture time; each key retains only the newest checkpoint (that is the
// recovery point).
type CheckpointStore struct {
	mu    sync.Mutex
	snaps map[string]*engineering.ClusterCheckpoint
	saves uint64
}

// NewCheckpointStore returns an empty store.
func NewCheckpointStore() *CheckpointStore {
	return &CheckpointStore{snaps: make(map[string]*engineering.ClusterCheckpoint)}
}

// Save records a checkpoint under its origin cluster id.
func (cs *CheckpointStore) Save(ck *engineering.ClusterCheckpoint) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.snaps[ck.Origin.String()] = ck
	cs.saves++
}

// Load retrieves the newest checkpoint for a cluster key.
func (cs *CheckpointStore) Load(key string) (*engineering.ClusterCheckpoint, error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	ck, ok := cs.snaps[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoCheckpoint, key)
	}
	return ck, nil
}

// Keys lists stored cluster keys, sorted.
func (cs *CheckpointStore) Keys() []string {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	out := make([]string, 0, len(cs.snaps))
	for k := range cs.snaps {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Saves returns the cumulative number of checkpoints taken.
func (cs *CheckpointStore) Saves() uint64 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.saves
}

// CheckpointNow captures a cluster into the store.
func CheckpointNow(k *engineering.Cluster, cs *CheckpointStore) error {
	ck, err := k.Checkpoint()
	if err != nil {
		return err
	}
	cs.Save(ck)
	return nil
}

// RecoverCluster re-instantiates a cluster from its newest checkpoint
// into the given capsule — the failure-transparency path when a node is
// lost: bindings re-resolve to the re-instantiated interfaces through the
// relocator.
func RecoverCluster(dst *engineering.Capsule, cs *CheckpointStore, key string, opts engineering.ClusterOptions) (*engineering.Cluster, error) {
	ck, err := cs.Load(key)
	if err != nil {
		return nil, err
	}
	return dst.Instantiate(ck, opts)
}
