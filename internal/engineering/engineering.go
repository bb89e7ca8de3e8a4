// Package engineering implements the RM-ODP engineering viewpoint
// structures of Figure 5 of the tutorial:
//
//	node ⊇ nucleus ⊇ capsules ⊇ clusters ⊇ basic engineering objects
//
// together with the management functions of Section 8.1 — node management
// (capsule and channel creation, provided by the nucleus), capsule
// management (cluster instantiation, checkpointing, deactivation), cluster
// management (checkpointing, deactivation, migration) and object
// management (checkpointing, deletion).
//
// The structuring rules of Section 6.2 are enforced:
//
//   - a node has a nucleus (by construction: NewNode creates it),
//   - a nucleus can support many capsules,
//   - a capsule can contain many clusters,
//   - a cluster can contain many basic engineering objects,
//   - a basic engineering object can contain many activities (package core),
//   - all inter-cluster communication is via channels (object interfaces
//     are only reachable through naming.InterfaceRef values bound with
//     package channel — there is no way to obtain a direct reference to
//     another cluster's object).
//
// An implementation may constrain the structuring ("only one object per
// cluster, only one cluster per capsule"); the Max* fields of NodeConfig
// model exactly that.
package engineering

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/channel"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/types"
)

// Engineering error sentinels.
var (
	ErrNodeClosed        = errors.New("engineering: node closed")
	ErrNoSuchCapsule     = errors.New("engineering: no such capsule")
	ErrNoSuchCluster     = errors.New("engineering: no such cluster")
	ErrNoSuchObject      = errors.New("engineering: no such object")
	ErrNoSuchBehavior    = errors.New("engineering: no such behaviour in registry")
	ErrDeactivated       = errors.New("engineering: cluster is deactivated")
	ErrActive            = errors.New("engineering: cluster is active")
	ErrStructuringLimit  = errors.New("engineering: structuring constraint violated")
	ErrNotCheckpointable = errors.New("engineering: behaviour does not support checkpointing")
)

// LocationRegistry is the node's window onto the relocator function;
// *relocator.Relocator implements it. A nil registry disables location
// registration (and with it relocation transparency for this node's
// interfaces).
type LocationRegistry interface {
	Register(ref naming.InterfaceRef) error
	Move(id naming.InterfaceID, to naming.Endpoint) (naming.InterfaceRef, error)
	Remove(id naming.InterfaceID)
}

// NodeConfig configures a node.
type NodeConfig struct {
	// ID names the node. Required.
	ID naming.NodeID
	// Endpoint is where the node's channel endpoint listens, e.g.
	// "sim://alpha" or "tcp://127.0.0.1:0". Required.
	Endpoint naming.Endpoint
	// Transport provides connectivity. Required.
	Transport netsim.Transport
	// Locations, when set, receives a registration for every interface
	// created at this node and a Move for every migration.
	Locations LocationRegistry
	// Server configures the node's channel endpoint (stages, replay guard).
	Server channel.ServerConfig
	// MaxClustersPerCapsule and MaxObjectsPerCluster, when positive,
	// constrain the structuring as Section 6.2 permits.
	MaxClustersPerCapsule int
	MaxObjectsPerCluster  int
}

// Node is a computer system in the engineering viewpoint: a nucleus plus
// the capsules it supports, sharing one channel endpoint.
type Node struct {
	cfg      NodeConfig
	server   *channel.Server
	endpoint naming.Endpoint
	registry *BehaviorRegistry
	// sessions multiplexes every outbound binding the nucleus creates
	// (Node.Bind) over one shared transport session per peer node.
	sessions *channel.SessionManager

	mu          sync.Mutex
	rng         *rand.Rand
	capsules    map[uint32]*Capsule
	nextCapsule uint32
	closed      bool
}

// NewNode starts a node: it creates the nucleus, opens the channel
// endpoint and begins serving.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.ID == "" {
		return nil, errors.New("engineering: NodeConfig.ID is required")
	}
	if cfg.Transport == nil {
		return nil, errors.New("engineering: NodeConfig.Transport is required")
	}
	if cfg.Endpoint == "" {
		return nil, errors.New("engineering: NodeConfig.Endpoint is required")
	}
	l, err := cfg.Transport.Listen(cfg.Endpoint)
	if err != nil {
		return nil, fmt.Errorf("engineering: node %s: %w", cfg.ID, err)
	}
	// Interface nonces are reproducible: their seed is a hash of the ID.
	var seed int64
	for _, c := range cfg.ID {
		seed = seed*31 + int64(c)
	}
	n := &Node{
		cfg:      cfg,
		server:   channel.NewServer(l, cfg.Server),
		endpoint: l.Endpoint(), // may differ from cfg.Endpoint (tcp port 0)
		registry: NewBehaviorRegistry(),
		sessions: channel.NewSessionManager(cfg.Transport),
		rng:      rand.New(rand.NewSource(seed)),
		capsules: make(map[uint32]*Capsule),
	}
	n.server.Start()
	return n, nil
}

// ID returns the node's identifier.
func (n *Node) ID() naming.NodeID { return n.cfg.ID }

// Endpoint returns the node's bound channel endpoint.
func (n *Node) Endpoint() naming.Endpoint { return n.endpoint }

// Behaviors returns the node's behaviour registry, used to instantiate
// objects (and to re-instantiate them after migration or reactivation).
func (n *Node) Behaviors() *BehaviorRegistry { return n.registry }

// Server exposes the node's channel endpoint, mainly so infrastructure
// stages can be inspected in tests.
func (n *Node) Server() *channel.Server { return n.server }

// Close shuts down the node: all capsules are deleted and the channel
// endpoint closes.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	caps := make([]*Capsule, 0, len(n.capsules))
	for _, c := range n.capsules {
		caps = append(caps, c)
	}
	n.capsules = map[uint32]*Capsule{}
	n.mu.Unlock()
	for _, c := range caps {
		c.deleteAll()
	}
	// The session manager is left open: bindings created through this
	// nucleus may outlive it (failing over to recovered clusters on other
	// nodes), and their sessions are reclaimed as each binding closes.
	return n.server.Close()
}

// CreateCapsule is the node-management function provided by the nucleus:
// it creates a capsule (with its capsule manager).
func (n *Node) CreateCapsule() (*Capsule, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrNodeClosed
	}
	seq := n.nextCapsule
	n.nextCapsule++
	c := &Capsule{
		node:     n,
		id:       naming.CapsuleID{Node: n.cfg.ID, Seq: seq},
		clusters: make(map[uint32]*Cluster),
	}
	n.capsules[seq] = c
	return c, nil
}

// Capsule returns the capsule with the given sequence number.
func (n *Node) Capsule(seq uint32) (*Capsule, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	c, ok := n.capsules[seq]
	if !ok {
		return nil, fmt.Errorf("%w: %d at node %s", ErrNoSuchCapsule, seq, n.cfg.ID)
	}
	return c, nil
}

// Capsules returns the node's capsules ordered by sequence number.
func (n *Node) Capsules() []*Capsule {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]*Capsule, 0, len(n.capsules))
	for _, c := range n.capsules {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id.Seq < out[j].id.Seq })
	return out
}

// DeleteCapsule removes a capsule and everything in it.
func (n *Node) DeleteCapsule(seq uint32) error {
	n.mu.Lock()
	c, ok := n.capsules[seq]
	if ok {
		delete(n.capsules, seq)
	}
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d at node %s", ErrNoSuchCapsule, seq, n.cfg.ID)
	}
	c.deleteAll()
	return nil
}

// Bind is the nucleus's channel-creation function: it creates the client
// end of a channel to ref using this node's transport. Additional
// configuration (stages, locator, retries) comes from cfg; its Transport
// field is overridden with the node's own, and unless cfg supplies a
// session manager the binding joins the node's shared one, so all of the
// node's outbound channels multiplex over one session per peer.
func (n *Node) Bind(ref naming.InterfaceRef, cfg channel.BindConfig) (*channel.Binding, error) {
	cfg.Transport = n.cfg.Transport
	if cfg.Sessions == nil {
		cfg.Sessions = n.sessions
	}
	return channel.Bind(ref, cfg)
}

// RegisterServant installs a standalone servant on the node's channel
// endpoint, outside the capsule/cluster machinery: an infrastructure-side
// interface (e.g. a stream consumer end) that needs a routable reference
// but no object lifecycle. The reference is minted under a synthetic
// object id (capsule/cluster/object all zero — real objects never collide
// because the nonce disambiguates) and registered with the location
// registry so relocation-aware clients can find it.
func (n *Node) RegisterServant(it *types.Interface, h channel.Handler) (naming.InterfaceRef, error) {
	if it != nil {
		if err := it.Validate(); err != nil {
			return naming.InterfaceRef{}, err
		}
	}
	id := naming.InterfaceID{
		Object: naming.ObjectID{Cluster: naming.ClusterID{Capsule: naming.CapsuleID{Node: n.cfg.ID}}},
		Nonce:  n.nonce(),
	}
	var typeName string
	if it != nil {
		typeName = it.Name
	}
	ref := naming.InterfaceRef{ID: id, TypeName: typeName, Endpoint: n.endpoint}
	if err := n.server.Register(id, it, h); err != nil {
		return naming.InterfaceRef{}, err
	}
	if err := n.registerLocation(ref); err != nil {
		n.server.Unregister(id)
		return naming.InterfaceRef{}, err
	}
	return ref, nil
}

// nonce draws a fresh interface nonce.
func (n *Node) nonce() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rng.Uint64()
}

// registerLocation records a new interface location, if a registry is
// configured.
func (n *Node) registerLocation(ref naming.InterfaceRef) error {
	if n.cfg.Locations == nil {
		return nil
	}
	return n.cfg.Locations.Register(ref)
}

// moveLocation relocates an interface to this node in the registry,
// falling back to a fresh registration when the old entry is gone (e.g.
// the source node died after taking the checkpoint we restored from).
func (n *Node) moveLocation(ref naming.InterfaceRef) (naming.InterfaceRef, error) {
	if n.cfg.Locations == nil {
		return ref, nil
	}
	moved, err := n.cfg.Locations.Move(ref.ID, n.endpoint)
	if err == nil {
		return moved, nil
	}
	ref.Endpoint = n.endpoint
	if regErr := n.cfg.Locations.Register(ref); regErr != nil {
		return ref, regErr
	}
	return ref, nil
}

func (n *Node) removeLocation(id naming.InterfaceID) {
	if n.cfg.Locations != nil {
		n.cfg.Locations.Remove(id)
	}
}
