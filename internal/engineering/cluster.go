package engineering

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/channel"
	"repro/internal/naming"
	"repro/internal/types"
	"repro/internal/values"
)

type clusterState int

const (
	clusterActive clusterState = iota
	clusterDeactivated
	clusterGone // deleted or migrated away
)

// drainBound is how long a state change waits for the calls inside the
// cluster's behaviours to leave before it is abandoned.
const drainBound = time.Second

// Cluster is a set of related basic engineering objects that are always
// co-located; it is the unit of checkpointing, deactivation and migration.
// The Cluster type is also the cluster manager's interface (Section 8.1).
//
// Every state change passes one admission gate: it holds newly arriving
// calls and drains the admitted ones, for at most drainBound, or is
// abandoned with the cluster still serving. Deactivation and migration are
// the same freeze, revived here or elsewhere.
type Cluster struct {
	capsule *Capsule
	id      naming.ClusterID
	opts    ClusterOptions

	mu         sync.Mutex
	idle       sync.Cond     // on mu; broadcast when a change reopens the gate
	changing   bool          // a state change holds the gate
	admitted   int           // calls inside a behaviour
	drained    chan struct{} // closed when admitted reaches 0 while changing
	state      clusterState
	objects    map[uint32]*Object
	nextObject uint32
	// lastCheckpoint holds the state captured at deactivation, consumed by
	// Reactivate (possibly triggered on demand by an incoming call).
	lastCheckpoint *ClusterCheckpoint
}

// ID returns the cluster identifier.
func (k *Cluster) ID() naming.ClusterID { return k.id }

// Active reports whether the cluster is active (instantiated and callable).
func (k *Cluster) Active() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.state == clusterActive
}

// lockIdle locks the cluster once no state change holds the gate.
func (k *Cluster) lockIdle() {
	k.mu.Lock()
	for k.changing {
		k.idle.Wait()
	}
}

// change runs f, without k.mu, behind the gate once the admitted calls
// have left, and reopens the gate.
func (k *Cluster) change(f func() error) error {
	k.lockIdle()
	k.changing, k.drained = true, make(chan struct{})
	drained := k.drained
	k.settle()
	k.mu.Unlock()
	var err error
	select {
	case <-drained:
		err = f()
	case <-time.After(drainBound):
		err = fmt.Errorf("engineering: cluster %s: calls still running after %v, change abandoned", k.id, drainBound)
	}
	k.mu.Lock()
	k.changing, k.drained = false, nil
	k.idle.Broadcast()
	k.mu.Unlock()
	return err
}

// settle ends a change's drain once no call is admitted.
func (k *Cluster) settle() {
	if k.admitted == 0 && k.drained != nil {
		close(k.drained)
		k.drained = nil
	}
}

// admit is the gate a call passes into o's behaviour: it waits out a state
// change, reactivates on demand, and counts the call in until it leaves.
func (o *Object) admit() (Behavior, error) {
	k := o.cluster
	k.lockIdle()
	defer k.mu.Unlock()
	if k.state == clusterDeactivated {
		if !k.opts.AutoReactivate {
			return nil, &channel.StageError{Code: channel.CodeUnavailable, Detail: k.id.String() + " is deactivated"}
		}
		if err := k.reactivateLocked(); err != nil {
			return nil, err
		}
	}
	if k.state == clusterGone || o.behavior == nil {
		// Migrated away (the relocator already names the new home) or
		// deleted: the binder's relocation signal.
		return nil, &channel.StageError{Code: channel.CodeNoSuchInterface, Detail: o.id.String()}
	}
	k.admitted++
	return o.behavior, nil
}

func (k *Cluster) leave() {
	k.mu.Lock()
	k.admitted--
	k.settle()
	k.mu.Unlock()
}

// CreateObject instantiates a basic engineering object inside the cluster
// from a registered behaviour. The behaviour name and arg are recorded so
// checkpoints can re-create the object elsewhere.
func (k *Cluster) CreateObject(behavior string, arg values.Value) (*Object, error) {
	node := k.capsule.node
	b, err := node.registry.New(behavior, arg)
	if err != nil {
		return nil, err
	}
	k.lockIdle()
	defer k.mu.Unlock()
	if k.state != clusterActive {
		return nil, fmt.Errorf("%w: %s", ErrDeactivated, k.id)
	}
	if max := node.cfg.MaxObjectsPerCluster; max > 0 && len(k.objects) >= max {
		return nil, fmt.Errorf("%w: cluster %s allows %d objects", ErrStructuringLimit, k.id, max)
	}
	seq := k.nextObject
	k.nextObject++
	o := &Object{
		cluster:    k,
		id:         naming.ObjectID{Cluster: k.id, Seq: seq},
		behavior:   b,
		factory:    behavior,
		factoryArg: arg,
		interfaces: make(map[uint32]*objectInterface),
	}
	k.objects[seq] = o
	return o, nil
}

// Object returns the object with the given sequence number.
func (k *Cluster) Object(seq uint32) (*Object, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	o, ok := k.objects[seq]
	if !ok {
		return nil, fmt.Errorf("%w: %d in cluster %s", ErrNoSuchObject, seq, k.id)
	}
	return o, nil
}

// Objects returns the cluster's objects ordered by sequence number.
func (k *Cluster) Objects() []*Object {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]*Object, 0, len(k.objects))
	for _, o := range k.objects {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id.Seq < out[j].id.Seq })
	return out
}

// Checkpoint captures the cluster: for every object, its behaviour name,
// creation argument, state (when the behaviour is Checkpointable) and
// interface identities. The cluster keeps running. The checkpoint of a
// deactivated cluster is the one its deactivation took; a cluster that was
// deleted or migrated away has none (ErrNoSuchCluster).
func (k *Cluster) Checkpoint() (*ClusterCheckpoint, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.checkpointLocked()
}

func (k *Cluster) checkpointLocked() (*ClusterCheckpoint, error) {
	switch k.state {
	case clusterDeactivated:
		return k.lastCheckpoint, nil
	case clusterGone:
		return nil, fmt.Errorf("%w: %s", ErrNoSuchCluster, k.id)
	}
	ck := &ClusterCheckpoint{
		Origin:         k.id,
		NextObject:     k.nextObject,
		AutoReactivate: k.opts.AutoReactivate,
	}
	for _, seq := range sortedKeys(k.objects) {
		oc, err := k.objects[seq].checkpoint()
		if err != nil {
			return nil, err
		}
		ck.Objects = append(ck.Objects, oc)
	}
	return ck, nil
}

// Deactivate drains the cluster, checkpoints it and releases its
// behaviours. The node keeps serving the interface identities: incoming
// calls either trigger reactivation (AutoReactivate) or fail with
// channel.CodeUnavailable until Reactivate is called.
func (k *Cluster) Deactivate() error {
	return k.change(func() error {
		k.mu.Lock()
		defer k.mu.Unlock()
		if k.state != clusterActive {
			return fmt.Errorf("%w: %s", ErrDeactivated, k.id)
		}
		ck, err := k.checkpointLocked()
		if err != nil {
			return err
		}
		k.lastCheckpoint = ck
		k.state = clusterDeactivated
		for _, o := range k.objects {
			o.behavior = nil // release application state
		}
		return nil
	})
}

// Reactivate restores the cluster from its deactivation checkpoint.
func (k *Cluster) Reactivate() error {
	k.lockIdle()
	defer k.mu.Unlock()
	return k.reactivateLocked()
}

func (k *Cluster) reactivateLocked() error {
	if k.state == clusterActive {
		return fmt.Errorf("%w: %s", ErrActive, k.id)
	}
	if k.state == clusterGone {
		return fmt.Errorf("%w: %s", ErrNoSuchCluster, k.id)
	}
	for _, oc := range k.lastCheckpoint.Objects {
		o, ok := k.objects[oc.Seq]
		if !ok {
			return fmt.Errorf("%w: object %d vanished from cluster %s", ErrNoSuchObject, oc.Seq, k.id)
		}
		b, err := k.capsule.node.registry.revive(oc)
		if err != nil {
			return err
		}
		o.behavior = b
	}
	k.state = clusterActive
	k.lastCheckpoint = nil
	return nil
}

// MigrateTo moves the cluster to a capsule on another node (the source
// still serves its identities while the destination installs them): drain,
// checkpoint, instantiate at the destination, which moves the locations
// there last, and only then withdraw here. Interface identities are
// preserved, so a call held at the gate or arriving later is answered
// channel.CodeNoSuchInterface after the relocator names the new home, and
// its binder re-resolves and replays (relocation transparency). A failed
// install leaves the cluster serving here. Returns the new cluster.
func (k *Cluster) MigrateTo(dst *Capsule) (*Cluster, error) {
	var nk *Cluster
	err := k.change(func() error {
		ck, err := k.Checkpoint()
		if err != nil {
			return err
		}
		if nk, err = dst.Instantiate(ck, ClusterOptions{}); err != nil { // the options travel in ck
			return fmt.Errorf("engineering: migration of %s failed at destination: %w", k.id, err)
		}
		k.withdraw()
		return nil
	})
	return nk, err
}

// withdraw stops serving the cluster at this node, leaving the relocator's
// entries to the cluster that carries its identities on (or still does).
func (k *Cluster) withdraw() {
	srv := k.capsule.node.server
	k.mu.Lock()
	k.state = clusterGone
	for _, o := range k.objects {
		for _, oi := range o.interfaces {
			srv.Unregister(oi.ref.ID)
		}
	}
	k.mu.Unlock()
	k.capsule.removeCluster(k.id.Seq)
}

// delete tears the cluster down permanently. It waits out a state change
// but drains nothing: a call already inside a behaviour finishes on it.
func (k *Cluster) delete() {
	k.lockIdle()
	objs := k.objects
	k.objects = map[uint32]*Object{}
	k.state = clusterGone
	k.mu.Unlock()
	for _, o := range objs {
		o.remove()
	}
}

// DeleteObject removes one object (the object-management deletion
// function).
func (k *Cluster) DeleteObject(seq uint32) error {
	k.lockIdle()
	o, ok := k.objects[seq]
	if ok {
		delete(k.objects, seq)
		o.behavior = nil
	}
	k.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d in cluster %s", ErrNoSuchObject, seq, k.id)
	}
	o.remove()
	return nil
}

// restore populates a fresh cluster from a checkpoint, preserving every
// interface identity. Every step that can fail here — behaviour, state,
// interface type, servant registration — comes first; moving the
// locations to this node, which publishes the new epoch, comes last.
func (k *Cluster) restore(ck *ClusterCheckpoint) error {
	node := k.capsule.node
	k.mu.Lock()
	defer k.mu.Unlock()
	k.nextObject = ck.NextObject
	k.opts.AutoReactivate = ck.AutoReactivate
	for _, oc := range ck.Objects {
		b, err := node.registry.revive(oc)
		if err != nil {
			return err
		}
		o := &Object{
			cluster:    k,
			id:         naming.ObjectID{Cluster: k.id, Seq: oc.Seq},
			behavior:   b,
			factory:    oc.Behavior,
			factoryArg: oc.Arg,
			interfaces: make(map[uint32]*objectInterface),
		}
		k.objects[oc.Seq] = o // from here a failed restore's withdraw unregisters it
		for _, ic := range oc.Interfaces {
			it, err := types.InterfaceFromValue(ic.Type)
			if err != nil {
				return fmt.Errorf("engineering: object %d interface %d: %w", oc.Seq, ic.Seq, err)
			}
			// Identity is preserved verbatim across any number of moves:
			// clients hold this name forever.
			oi := &objectInterface{
				typ: it,
				ref: naming.InterfaceRef{ID: ic.Ref.ID, TypeName: it.Name, Endpoint: node.endpoint},
			}
			if err := node.server.Register(oi.ref.ID, it, &objectHandler{object: o}); err != nil {
				return err
			}
			o.interfaces[ic.Seq] = oi
			if ic.Seq >= o.nextInterface {
				o.nextInterface = ic.Seq + 1
			}
		}
	}
	for _, o := range k.objects {
		for _, oi := range o.interfaces {
			var err error
			if oi.ref, err = node.moveLocation(oi.ref); err != nil {
				return err
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Object: basic engineering object

type objectInterface struct {
	typ *types.Interface
	ref naming.InterfaceRef
}

// Object is a basic engineering object: a behaviour plus the interfaces it
// offers. Its methods are the object-management functions.
type Object struct {
	cluster    *Cluster
	id         naming.ObjectID
	factory    string
	factoryArg values.Value

	// Guarded by cluster.mu.
	behavior      Behavior // nil while deactivated
	interfaces    map[uint32]*objectInterface
	nextInterface uint32
}

// ID returns the object identifier.
func (o *Object) ID() naming.ObjectID { return o.id }

// AddInterface creates a new interface of the given type on the object,
// registers it with the node's channel endpoint and the location registry,
// and returns its reference.
func (o *Object) AddInterface(it *types.Interface) (naming.InterfaceRef, error) {
	if err := it.Validate(); err != nil {
		return naming.InterfaceRef{}, err
	}
	k := o.cluster
	node := k.capsule.node
	k.mu.Lock()
	seq := o.nextInterface
	o.nextInterface++
	k.mu.Unlock()
	id := naming.InterfaceID{Object: o.id, Seq: seq, Nonce: node.nonce()}
	ref := naming.InterfaceRef{ID: id, TypeName: it.Name, Endpoint: node.endpoint}
	if err := node.server.Register(id, it, &objectHandler{object: o}); err != nil {
		return naming.InterfaceRef{}, err
	}
	if err := node.registerLocation(ref); err != nil {
		node.server.Unregister(id)
		return naming.InterfaceRef{}, err
	}
	k.mu.Lock()
	o.interfaces[seq] = &objectInterface{typ: it, ref: ref}
	k.mu.Unlock()
	return ref, nil
}

// Interfaces returns the object's interface references ordered by sequence.
func (o *Object) Interfaces() []naming.InterfaceRef {
	o.cluster.mu.Lock()
	defer o.cluster.mu.Unlock()
	out := make([]naming.InterfaceRef, 0, len(o.interfaces))
	for _, seq := range sortedKeys(o.interfaces) {
		out = append(out, o.interfaces[seq].ref)
	}
	return out
}

// Behavior returns the object's live behaviour (nil while deactivated).
func (o *Object) Behavior() Behavior {
	o.cluster.mu.Lock()
	defer o.cluster.mu.Unlock()
	return o.behavior
}

// checkpoint captures the object (object-management checkpoint function).
// The caller holds o.cluster.mu.
func (o *Object) checkpoint() (ObjectCheckpoint, error) {
	oc := ObjectCheckpoint{
		Seq:      o.id.Seq,
		Behavior: o.factory,
		Arg:      o.factoryArg,
	}
	if cb, ok := o.behavior.(Checkpointable); ok {
		state, err := cb.CheckpointState()
		if err != nil {
			return ObjectCheckpoint{}, fmt.Errorf("engineering: checkpointing %s: %w", o.id, err)
		}
		oc.State = state
		oc.HasState = true
	}
	for _, seq := range sortedKeys(o.interfaces) {
		oi := o.interfaces[seq]
		oc.Interfaces = append(oc.Interfaces, InterfaceCheckpoint{
			Seq:  seq,
			Ref:  oi.ref,
			Type: oi.typ.ToValue(),
		})
	}
	return oc, nil
}

// remove deregisters all interfaces, here and in the relocator.
func (o *Object) remove() {
	k := o.cluster
	k.mu.Lock()
	ifaces := o.interfaces
	o.interfaces = map[uint32]*objectInterface{}
	k.mu.Unlock()
	node := k.capsule.node
	for _, oi := range ifaces {
		node.server.Unregister(oi.ref.ID)
		node.removeLocation(oi.ref.ID)
	}
}

// objectHandler adapts an Object to channel.Handler: every call passes
// the cluster's admission gate, the node-side half of persistence and
// relocation transparency.
type objectHandler struct {
	object *Object
}

var (
	_ channel.Handler        = (*objectHandler)(nil)
	_ channel.FlowReceiver   = (*objectHandler)(nil)
	_ channel.SignalReceiver = (*objectHandler)(nil)
)

func (h *objectHandler) Invoke(ctx context.Context, op string, args []values.Value) (string, []values.Value, error) {
	b, err := h.object.admit()
	if err != nil {
		return "", nil, err
	}
	defer h.object.cluster.leave()
	return b.Invoke(ctx, op, args)
}

func (h *objectHandler) Flow(flow string, elem values.Value) {
	if fr, ok := h.object.current().(channel.FlowReceiver); ok {
		fr.Flow(flow, elem)
	}
}

func (h *objectHandler) Signal(name string, args []values.Value) {
	if sr, ok := h.object.current().(channel.SignalReceiver); ok {
		sr.Signal(name, args)
	}
}

// current returns the behaviour a flow element or signal goes to: on the
// session's read loop, so never waiting at (or reactivating behind) the gate.
func (o *Object) current() Behavior {
	k := o.cluster
	k.mu.Lock()
	defer k.mu.Unlock()
	if !k.changing && k.state == clusterDeactivated && k.opts.AutoReactivate {
		_ = k.reactivateLocked() // a failed revival leaves no behaviour, and the element is dropped
	}
	return o.behavior
}

func sortedKeys[M ~map[uint32]V, V any](m M) []uint32 {
	out := make([]uint32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
