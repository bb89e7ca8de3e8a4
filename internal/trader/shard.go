// Sharded trading: the offer space partitioned by consistent hashing
// over the advertised service type. A ShardedTrader is a front-end that
// owns no offers itself; it routes Export to the shard owning the
// service type (PR 2's type-bucketed store means a shard holds whole
// buckets, never split ones), and answers Import by computing the
// subtype closure of the request over the types advertised through it,
// mapping those candidate types to their owning shards, and fanning out
// to just that shard set — bounded-parallel, merged and deduplicated at
// the origin, exactly like a federated import. With T advertised types
// spread over N shards, an exact-type import costs one shard; a closure
// of k types costs at most min(k, N) shards — so aggregate capacity
// grows with N instead of every import paying every shard.
//
// Shards are ordinary trader objects: a local *Trader, or a *Remote
// proxy over a channel binding to a trader hosted on another node or
// over a replica group of them. The front-end never needs to know which.
// One shard is the singleton trader: the front-end is the trading
// function at every shard count, and it alone federates (see federate).
//
// Rebalancing is live. A ring change (AddShard/RemoveShard) first marks
// every service type whose owner moved as "in flight" — imports for a
// moving type query both the old and the new owner, and the origin-side
// dedupe absorbs the window where an offer is visible on both — then
// copies each moving bucket with Install (identity-preserving) before
// withdrawing it from the old owner. A live offer is therefore always
// visible on at least one queried shard: the per-offer blackout during
// rebalance is zero by construction, which experiment E13 measures.
package trader

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/hashring"
	"repro/internal/mgmt"
	"repro/internal/naming"
	"repro/internal/policy"
	"repro/internal/typerepo"
	"repro/internal/values"
)

// ErrNoShards reports an operation on a sharded trader with an empty ring.
var ErrNoShards = errors.New("trader: sharded trader has no shards")

// presizeK is the largest MaxMatches an import's merge is sized for up
// front.
const presizeK = 64

// Shard is one partition of the offer space: the trading operations the
// front-end routes to. *Trader and *Remote both satisfy it.
type Shard interface {
	Importer
	Export(serviceType string, ref naming.InterfaceRef, props values.Value) (string, error)
	Withdraw(offerID string) error
	Install(o Offer) error
}

var (
	_ Shard = (*Trader)(nil)
	_ Shard = (*Remote)(nil)
)

// ShardStats counts sharded-trading activity at the front-end.
type ShardStats struct {
	Exports       uint64
	Withdraws     uint64
	Imports       uint64
	Matched       uint64
	ShardsQueried uint64 // shard queries issued by imports (≥ Imports)
	Rebalances    uint64 // completed ring changes
	Migrated      uint64 // offers moved live by rebalances
	RingEpoch     uint64
	Shards        int    // shards on the ring
	Federated     uint64 // link queries issued by imports
	LinksSkipped  uint64 // federation links passed over with an open circuit
	LinksFailed   uint64 // federation links that answered an import with an error
}

// LegStats counts one shard's routing as the front-end sees it.
type LegStats struct {
	Offers        int64  // offers homed on the shard now
	RoutedExports uint64 // exports (and installs) routed to it
	RoutedImports uint64 // shard queries routed to it
	Considered    uint64 // offers a local *Trader shard examined (a remote counts its own)
}

// shardLeg is the per-shard routing state the front-end keeps.
type shardLeg struct {
	shard   Shard
	offers  atomic.Int64 // offers routed here minus withdrawn/migrated away
	exports atomic.Uint64
	imports atomic.Uint64
}

// query is one routed shard import.
func (l *shardLeg) query(sub ImportRequest) ([]Offer, error) {
	l.imports.Add(1)
	return l.shard.Import(sub)
}

// ShardedTrader partitions the offer space over named shards by
// consistent hashing of the advertised service type. It satisfies Shard
// itself, so sharded traders nest (a front-end can be a federation link
// target or even a shard of a bigger one).
type ShardedTrader struct {
	importCore
	name string

	mu     sync.RWMutex
	ring   *hashring.Ring
	shards map[string]*shardLeg
	// advertised is the set of service types exported (or installed)
	// through this front-end: the universe the import-side closure is
	// computed over. Correct routing requires all exports to flow through
	// the front-end; offers slipped directly into a shard are invisible
	// to closure routing (the same contract a single trader has with its
	// own store). A type is never removed from it.
	advertised map[string]bool
	// moving maps a service type mid-rebalance to its previous owner, so
	// imports during the copy window query both owners.
	moving map[string]string
	// closure is the memo over the advertised set. Ring changes do not
	// invalidate it — the closure is about types, not owners.
	closure closureMemo
	links   map[string]Importer // federation links by name

	rebalanceMu sync.Mutex // serialises ring changes end to end

	exports   atomic.Uint64
	withdrs   atomic.Uint64
	queried   atomic.Uint64
	rebals    atomic.Uint64
	migrated  atomic.Uint64
	insp      atomic.Pointer[mgmt.ShardInstruments]
	ringEpoch atomic.Uint64

	feder, linksSkipped, linksFailed atomic.Uint64
	breakers                         atomic.Pointer[policy.BreakerSet]
}

var _ Shard = (*ShardedTrader)(nil)

// NewSharded creates an empty sharded front-end over the type
// repository. ringReplicas is the virtual-node count per shard (<=0
// selects the default). Add shards with AddShard.
func NewSharded(name string, repo typerepo.Repository, ringReplicas int) *ShardedTrader {
	s := &ShardedTrader{
		name:       name,
		ring:       hashring.New(ringReplicas),
		shards:     make(map[string]*shardLeg),
		advertised: make(map[string]bool),
		moving:     make(map[string]string),
		links:      make(map[string]Importer),
	}
	s.importCore.init(repo, name, 7)
	return s
}

// Name returns the front-end's name.
func (s *ShardedTrader) Name() string { return s.name }

// Instrument attaches a management bundle's routing histograms (the
// counters and ring shape are ShardStats, read through). Safe to call at
// any time; nil detaches.
func (s *ShardedTrader) Instrument(ins *mgmt.ShardInstruments) {
	s.insp.Store(ins)
	if ins == nil {
		s.latency.Store(nil)
		return
	}
	s.latency.Store(ins.ImportLatency)
}

// Shards returns the sorted shard names on the ring.
func (s *ShardedTrader) Shards() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ring.Members()
}

// RingEpoch returns the current ring generation; it advances when a ring
// change flips the ring (ShardStats.Rebalances counts the changes that
// have settled).
func (s *ShardedTrader) RingEpoch() uint64 { return s.ringEpoch.Load() }

// Export routes the offer to the shard owning its service type. The
// returned offer id is minted by that shard ("<shard>/<seq>"), which is
// what lets Withdraw route by prefix.
func (s *ShardedTrader) Export(serviceType string, ref naming.InterfaceRef, props values.Value) (string, error) {
	return s.route(&Offer{ServiceType: serviceType, Ref: ref, Properties: props})
}

// Install routes an identity-preserving insert to the owner of the
// offer's service type (nesting support; rebalance uses shard.Install
// directly on the target).
func (s *ShardedTrader) Install(o Offer) error {
	if o.ID == "" {
		return fmt.Errorf("%w: install needs an offer id", ErrBadRequest)
	}
	_, err := s.route(&o)
	return err
}

// route inserts an offer at the shard owning its service type — an Export
// when it has no id yet, an Install under the id it has — and returns the
// id it ended up with.
//
// A ring flip racing the insert could strand the offer on a shard that
// just stopped owning the type (landing after the migration pass already
// enumerated the bucket), so the insert re-checks ownership after it
// lands and re-routes itself if the ground moved.
func (s *ShardedTrader) route(o *Offer) (string, error) {
	for {
		s.mu.RLock()
		owner := s.ring.Owner(o.ServiceType)
		leg := s.shards[owner]
		s.mu.RUnlock()
		if leg == nil {
			return "", ErrNoShards
		}
		id, err := o.ID, error(nil)
		if id == "" {
			id, err = leg.shard.Export(o.ServiceType, o.Ref, o.Properties)
		} else {
			err = leg.shard.Install(*o)
		}
		if err != nil {
			return "", err
		}
		if !s.settleRouted(o.ServiceType, owner) {
			// Ownership moved mid-insert: pull the offer back from wherever
			// it ended up (old shard, or already migrated) and try again.
			_ = s.Withdraw(id)
			continue
		}
		s.exports.Add(1)
		leg.exports.Add(1)
		leg.offers.Add(1)
		return id, nil
	}
}

// settleRouted records the advertised type and confirms the shard the
// offer landed on still owns its service type. False means a rebalance
// flipped ownership mid-flight and the caller must re-route.
func (s *ShardedTrader) settleRouted(serviceType, owner string) bool {
	s.mu.Lock()
	if !s.advertised[serviceType] {
		s.advertised[serviceType] = true
	}
	ok := s.ring.Owner(serviceType) == owner
	s.mu.Unlock()
	return ok
}

// Withdraw removes an offer. Offer ids carry the minting shard's name as
// a prefix ("<shard>/<seq>"), so the common case is one routed call; if
// the offer has since migrated to another shard (rebalance preserves
// ids, not homes), the front-end falls back to asking the remaining
// shards.
func (s *ShardedTrader) Withdraw(offerID string) error {
	s.mu.RLock()
	var first *shardLeg
	var firstName string
	if i := strings.IndexByte(offerID, '/'); i > 0 {
		firstName = offerID[:i]
		first = s.shards[firstName]
	}
	rest := make([]*shardLeg, 0, len(s.shards))
	for name, leg := range s.shards {
		if name != firstName {
			rest = append(rest, leg)
		}
	}
	s.mu.RUnlock()
	if first == nil && len(rest) == 0 {
		return ErrNoShards
	}
	try := func(leg *shardLeg) (bool, error) {
		err := leg.shard.Withdraw(offerID)
		if err == nil {
			s.withdrs.Add(1)
			leg.offers.Add(-1)
			return true, nil
		}
		if errors.Is(err, ErrNoSuchOffer) {
			return false, nil
		}
		return false, err
	}
	// Two passes: a scan racing a live migration can read the new owner
	// before the copy lands and the old owner after it is withdrawn. The
	// copy is installed before the original is withdrawn, so a second scan
	// started after the first missed is guaranteed to see it.
	for attempt := 0; attempt < 2; attempt++ {
		if first != nil {
			done, err := try(first)
			if done || err != nil {
				return err
			}
		}
		for _, leg := range rest {
			done, err := try(leg)
			if done || err != nil {
				return err
			}
		}
	}
	return fmt.Errorf("%w: %q", ErrNoSuchOffer, offerID)
}

// Import finds matching offers across the shard set, then the federation
// links. The request's subtype closure over the advertised types picks the
// candidate shards; each leg is asked for its own best MaxMatches
// (subRequest), bounded-parallel, and their answers are merged with
// origin-side dedupe (an offer mid-migration may answer from two shards),
// ordered by the preference, and truncated to MaxMatches.
func (s *ShardedTrader) Import(req ImportRequest) ([]Offer, error) {
	res, err := s.ImportEx(req)
	return res.Offers, err
}

// ImportEx is Import plus the degradation metadata of ImportResult, its
// legs being the shards queried and then the federation links.
func (s *ShardedTrader) ImportEx(req ImportRequest) (ImportResult, error) {
	q, err := s.begin(req)
	if err != nil {
		return ImportResult{}, err
	}
	sub := q.subRequest(req)

	// Previous owners of in-flight buckets are queried strictly BEFORE the
	// current owners. Migration installs the copy on the new owner before
	// withdrawing the original, so this ordering makes a miss impossible:
	// if the old owner has already given the bucket up by the time it is
	// read, the copy was on the new owner before the (later) read of it
	// started. Reading in the other order is the classic double-read race.
	//
	// The leg snapshot itself can also be overtaken — a ring that flips
	// after targetShards ran routes the import at shards that may donate
	// their buckets before the reads land — so the import revalidates the
	// ring epoch afterwards and re-runs under the new routing if it moved.
	// Nothing advertised substituting for the request is no leg and an
	// empty match, not an error (same as a single trader with no matching
	// bucket).
	var res ImportResult
	var matches []Offer
	for attempt := 0; ; attempt++ {
		// The epoch is sampled before the routing snapshot, so a flip
		// between the two is caught by the revalidation below.
		epoch := s.ringEpoch.Load()
		oldLegs, curLegs := s.targetShards(req.ServiceType)
		res = ImportResult{}
		// A lone leg's answer is the merge; several legs' best k each fit
		// in legs × k without regrowth. k comes from the caller, possibly
		// off the wire, so past presizeK the merge grows as answers arrive.
		matches = nil
		var seen map[string]bool
		if legs := len(oldLegs) + len(curLegs); legs > 1 {
			n := legs * min(sub.MaxMatches, presizeK)
			matches = make([]Offer, 0, n)
			seen = make(map[string]bool, n)
		}
		for _, phase := range [][]*shardLeg{oldLegs, curLegs} {
			if len(phase) > 0 {
				results, errs := queryAll(phase, sub)
				matches = res.merge(matches, seen, results, errs)
			}
		}
		s.queried.Add(uint64(res.LinksQueried))
		if s.ringEpoch.Load() == epoch || attempt >= 3 {
			break
		}
	}
	if ins := s.insp.Load(); ins != nil {
		ins.ShardsPerImport.Observe(uint64(res.LinksQueried))
	}
	if req.MaxHops > 0 {
		sub.MaxHops = req.MaxHops - 1
		matches = s.federate(sub, &res, matches)
	}
	return s.finish(q, req, res, matches), nil
}

// federate puts the sub-request, one hop shorter, to every federation link
// — concurrently, through the shards' fan-out — and merges their answers
// after the shards' matches, deduplicated by offer id (a diamond answers
// twice). Without a link it allocates nothing.
func (s *ShardedTrader) federate(sub ImportRequest, res *ImportResult, matches []Offer) []Offer {
	links := s.linkLegs()
	if len(links) == 0 {
		return matches
	}
	seen := make(map[string]bool, len(matches))
	for _, o := range matches {
		seen[o.ID] = true
	}
	s.feder.Add(uint64(len(links)))
	skipped, failed := res.LinksSkipped, res.LinksFailed
	results, errs := queryAll(links, sub)
	matches = res.merge(matches, seen, results, errs)
	s.linksSkipped.Add(uint64(res.LinksSkipped - skipped))
	s.linksFailed.Add(uint64(res.LinksFailed - failed))
	return matches
}

// Link federates this trading function with another (or with a proxy to a
// remote one). Imports with MaxHops > 0 propagate along links.
func (s *ShardedTrader) Link(name string, target Importer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.links[name] = target
}

// Unlink removes a federation link.
func (s *ShardedTrader) Unlink(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.links, name)
}

// Links returns the sorted names of federation links.
func (s *ShardedTrader) Links() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.links))
	for n := range s.links {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// SetLinkBreakers attaches (nil detaches) a circuit-breaker set over the
// federation links, keyed by link name: imports skip links whose breaker
// is open instead of waiting out their failure, returning a partial
// result marked Degraded. Sharing one set across front-ends makes a dead
// partner trip once for the whole federation client.
func (s *ShardedTrader) SetLinkBreakers(bs *policy.BreakerSet) {
	s.breakers.Store(bs)
}

// linkLeg is one federation link as an import queries it. A dead
// federation partner must not fail the import: its error is reported for
// the degradation metadata, and its circuit breaker (when a set is
// attached) records the outcome so the next import skips it without
// waiting.
type linkLeg struct {
	name     string
	target   Importer
	breakers *policy.BreakerSet
}

func (l linkLeg) query(sub ImportRequest) ([]Offer, error) {
	if l.breakers == nil {
		return l.target.Import(sub)
	}
	br := l.breakers.For(l.name)
	if ok, _ := br.Allow(); !ok {
		return nil, fmt.Errorf("%w: federation link %s", policy.ErrCircuitOpen, l.name)
	}
	offers, err := l.target.Import(sub)
	br.Record(err == nil)
	return offers, err
}

// linkLegs snapshots the federation links in name order (a deterministic
// merge order); nil when there are none.
func (s *ShardedTrader) linkLegs() []linkLeg {
	bs := s.breakers.Load()
	s.mu.RLock()
	defer s.mu.RUnlock()
	var legs []linkLeg
	for n, target := range s.links {
		legs = append(legs, linkLeg{name: n, target: target, breakers: bs})
	}
	slices.SortFunc(legs, func(a, b linkLeg) int { return strings.Compare(a.name, b.name) })
	return legs
}

// targetShards maps a requested service type to the legs that must be
// queried, split into the previous owners of types mid-rebalance (read
// first) and the current owners of every advertised candidate type (read
// after — see ImportEx for why the order matters). A leg appears in at
// most one slice; within one rebalance window the donating and receiving
// shard sets are disjoint, so a leg in the old slice is never the new
// owner of another moving type.
func (s *ShardedTrader) targetShards(serviceType string) (oldLegs, curLegs []*shardLeg) {
	cands := closureOver(&s.closure, &s.mu, s.advertised, s.types, serviceType)
	if len(cands) == 0 {
		return nil, nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	curLegs = make([]*shardLeg, 0, min(len(cands), len(s.shards)))
	names := make(map[string]bool, 2)
	add := func(name string, old bool) {
		leg := s.shards[name]
		if leg == nil || names[name] {
			return
		}
		names[name] = true
		if old {
			oldLegs = append(oldLegs, leg)
		} else {
			curLegs = append(curLegs, leg)
		}
	}
	for _, ct := range cands {
		if old, inFlight := s.moving[ct]; inFlight {
			add(old, true)
		}
	}
	for _, ct := range cands {
		add(s.ring.Owner(ct), false)
	}
	return oldLegs, curLegs
}

// AddShard joins a shard to the ring and live-migrates every bucket
// whose ownership moved to it. Lookups keep flowing throughout: moving
// types are double-queried (old + new owner) until their copy completes.
// The shard name should match the underlying trader's name so withdraw
// prefix-routing stays exact (mismatches still work via the fallback).
func (s *ShardedTrader) AddShard(name string, shard Shard) error {
	leg := &shardLeg{shard: shard}
	return s.changeRing(func(next *hashring.Ring) error {
		if _, dup := s.shards[name]; dup {
			return fmt.Errorf("trader: shard %q already present", name)
		}
		if err := next.Add(name); err != nil {
			return err
		}
		s.shards[name] = leg
		return nil
	}, "")
}

// RemoveShard drains a shard off the ring, live-migrating its buckets to
// their new owners, then drops it. The shard object itself is not
// closed; the caller owns its lifecycle.
func (s *ShardedTrader) RemoveShard(name string) error {
	return s.changeRing(func(next *hashring.Ring) error {
		if _, ok := s.shards[name]; !ok {
			return fmt.Errorf("trader: no shard %q", name)
		}
		if len(s.shards) == 1 {
			return fmt.Errorf("trader: cannot remove last shard %q", name)
		}
		return next.Remove(name)
	}, name)
}

// changeRing is the one ring-change protocol. edit changes the membership
// of next, a clone of the ring, and of s.shards, under s.mu; a shard named
// as leaving stays in s.shards until its buckets are copied — imports for
// moving types keep reaching it through the moving map — and is dropped
// last.
func (s *ShardedTrader) changeRing(edit func(next *hashring.Ring) error, leaving string) error {
	s.rebalanceMu.Lock()
	defer s.rebalanceMu.Unlock()

	s.mu.Lock()
	next := s.ring.Clone()
	if err := edit(next); err != nil {
		s.mu.Unlock()
		return err
	}
	// Service types whose owner changes under the new ring enter the
	// double-query window before the ring flips, so no import observes
	// the new routing without the old owner as fallback.
	var moves []migration
	for t := range s.advertised {
		oldOwner := s.ring.Owner(t)
		newOwner := next.Owner(t)
		if oldOwner != newOwner && oldOwner != "" {
			s.moving[t] = oldOwner
			moves = append(moves, migration{serviceType: t, from: oldOwner, to: newOwner})
		}
	}
	s.ring = next
	s.ringEpoch.Store(next.Epoch())
	s.mu.Unlock()

	err := s.migrate(moves)

	// Close the double-query window; the epoch said "flipped", the
	// rebalance count says "settled".
	s.mu.Lock()
	for _, m := range moves {
		delete(s.moving, m.serviceType)
	}
	delete(s.shards, leaving)
	s.mu.Unlock()
	s.rebals.Add(1)
	return err
}

type migration struct {
	serviceType string
	from, to    string
}

// migrate copies each moving bucket to its new owner (Install preserves
// offer ids) and only then withdraws from the old — an offer is always
// importable from at least one double-queried owner.
func (s *ShardedTrader) migrate(moves []migration) error {
	var firstErr error
	for _, m := range moves {
		s.mu.RLock()
		fromLeg := s.shards[m.from]
		toLeg := s.shards[m.to]
		s.mu.RUnlock()
		if fromLeg == nil || toLeg == nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("trader: migration %s: shard missing (%s -> %s)", m.serviceType, m.from, m.to)
			}
			continue
		}
		// Enumerate the bucket through the import interface (works for
		// remote shards too); the exact-type filter drops subtype offers
		// that live in other buckets.
		batch, err := fromLeg.shard.Import(ImportRequest{ServiceType: m.serviceType})
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("trader: migrating %s off %s: %w", m.serviceType, m.from, err)
			}
			continue
		}
		for _, o := range batch {
			if o.ServiceType != m.serviceType {
				continue
			}
			if err := toLeg.shard.Install(o); err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("trader: installing %s on %s: %w", o.ID, m.to, err)
				}
				continue
			}
			toLeg.offers.Add(1)
			if err := fromLeg.shard.Withdraw(o.ID); err != nil && !errors.Is(err, ErrNoSuchOffer) {
				if firstErr == nil {
					firstErr = fmt.Errorf("trader: withdrawing migrated %s from %s: %w", o.ID, m.from, err)
				}
			}
			fromLeg.offers.Add(-1)
			s.migrated.Add(1)
		}
	}
	return firstErr
}

// ShardStats returns a snapshot of front-end counters.
func (s *ShardedTrader) ShardStats() ShardStats {
	s.mu.RLock()
	shards := len(s.shards)
	s.mu.RUnlock()
	return ShardStats{
		Exports:       s.exports.Load(),
		Withdraws:     s.withdrs.Load(),
		Imports:       s.imports.Load(),
		Matched:       s.matched.Load(),
		ShardsQueried: s.queried.Load(),
		Rebalances:    s.rebals.Load(),
		Migrated:      s.migrated.Load(),
		RingEpoch:     s.ringEpoch.Load(),
		Shards:        shards,
		Federated:     s.feder.Load(),
		LinksSkipped:  s.linksSkipped.Load(),
		LinksFailed:   s.linksFailed.Load(),
	}
}

// LegStats returns each shard's routing counts, keyed by shard name; a
// shard leaves it once RemoveShard has drained it.
func (s *ShardedTrader) LegStats() map[string]LegStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]LegStats, len(s.shards))
	for name, leg := range s.shards {
		ls := LegStats{
			Offers:        leg.offers.Load(),
			RoutedExports: leg.exports.Load(),
			RoutedImports: leg.imports.Load(),
		}
		if t, ok := leg.shard.(*Trader); ok {
			ls.Considered = t.consid.Load()
		}
		out[name] = ls
	}
	return out
}
