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
// Rebalancing is live: a ring change (AddShard/RemoveShard) is
// hashring.Partition's shard-move protocol, to which the front-end adds the
// bucket move (drain) — Install at the new owner, then Withdraw at the old
// — and reads that the origin-side dedupe absorbs. The per-offer blackout
// during rebalance is zero by construction, which experiment E13 measures.
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
	"repro/internal/typerepo"
	"repro/internal/values"
)

// ErrNoShards reports an operation on a sharded trader with an empty ring.
var ErrNoShards = errors.New("trader: sharded trader has no shards")

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

// ShardedTrader partitions the offer space over named shards by
// consistent hashing of the advertised service type. It satisfies Shard
// itself, so sharded traders nest (a front-end can be a federation link
// target or even a shard of a bigger one).
type ShardedTrader struct {
	importCore
	part hashring.Partition[*shardLeg] // the shards, keyed by service type

	mu sync.RWMutex
	// advertised is the set of service types exported (or installed)
	// through this front-end: the universe the import-side closure is
	// computed over. Correct routing requires all exports to flow through
	// the front-end; offers slipped directly into a shard are invisible
	// to closure routing (the same contract a single trader has with its
	// own store). A type is never removed from it.
	advertised map[string]bool
	// closure is the memo over the advertised set. Ring changes do not
	// invalidate it — the closure is about types, not owners.
	closure closureMemo
	links   map[string]Importer // federation links by name

	exports  atomic.Uint64
	withdrs  atomic.Uint64
	queried  atomic.Uint64
	migrated atomic.Uint64
	insp     atomic.Pointer[mgmt.ShardInstruments]

	feder, linksSkipped, linksFailed atomic.Uint64
}

var _ Shard = (*ShardedTrader)(nil)

// NewSharded creates an empty sharded front-end over the type
// repository. Add shards with AddShard. ringReplicas is ignored — every
// ring places 64 virtual points per shard — and stays only because the
// frozen bench/trade.go calls NewSharded with it; the next benchmark PR
// drops it (the EnableRelocationCache precedent).
func NewSharded(name string, repo typerepo.Repository, ringReplicas int) *ShardedTrader {
	s := &ShardedTrader{
		advertised: make(map[string]bool),
		links:      make(map[string]Importer),
	}
	s.importCore.init(repo, name, 7)
	return s
}

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
// just stopped owning the type (landing after the drain already read the
// bucket), so the insert re-checks ownership after it lands. If the
// ground moved, it waits the change out and pulls the offer back from
// where it landed. A fresh export the drain carried over is then where it
// belongs; anything else goes again, an install because the drain may
// have carried an older copy of it.
func (s *ShardedTrader) route(o *Offer) (string, error) {
	for {
		owner, leg, ok := s.part.View().Owner(o.ServiceType)
		if !ok {
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
		leg.exports.Add(1)
		leg.offers.Add(1)
		s.advertise(o.ServiceType)
		if !s.part.Owns(o.ServiceType, owner) {
			s.part.Settle()
			switch err := leg.shard.Withdraw(id); {
			case err == nil:
				leg.offers.Add(-1)
				continue
			case !errors.Is(err, ErrNoSuchOffer):
				return "", err
			case o.ID != "":
				continue
			}
		}
		s.exports.Add(1)
		return id, nil
	}
}

// advertise records a service type as exported through the front-end. It
// happens before the insert's ownership check, so a ring change that the
// check does not see reads the type when it drains.
func (s *ShardedTrader) advertise(serviceType string) {
	s.mu.Lock()
	if !s.advertised[serviceType] {
		s.advertised[serviceType] = true
	}
	s.mu.Unlock()
}

// Withdraw removes an offer. Offer ids carry the minting shard's name as
// a prefix ("<shard>/<seq>"), so the common case is one routed call; if
// the offer has since migrated to another shard (rebalance preserves
// ids, not homes), the front-end falls back to asking the remaining
// shards.
func (s *ShardedTrader) Withdraw(offerID string) error {
	var first string
	if i := strings.IndexByte(offerID, '/'); i > 0 {
		first = offerID[:i]
	}
	// Two passes, each over the shards then routed to: a scan racing a
	// live migration can read the new owner before the copy lands and the
	// old owner after it is withdrawn. The copy is installed before the
	// original is withdrawn, so a second scan started after the first
	// missed is guaranteed to see it.
	for pass := 0; pass < 2; pass++ {
		v := s.part.View()
		names, legs := v.Names(), v.Members()
		if len(legs) == 0 {
			return ErrNoShards
		}
		done, err := false, error(nil)
		if leg, ok := v.Member(first); ok {
			done, err = s.withdrawAt(leg, offerID)
		}
		for i := 0; i < len(legs) && !done && err == nil; i++ {
			if names[i] != first {
				done, err = s.withdrawAt(legs[i], offerID)
			}
		}
		if done || err != nil {
			return err
		}
	}
	return fmt.Errorf("%w: %q", ErrNoSuchOffer, offerID)
}

// withdrawAt withdraws an offer from one shard; done reports it was there.
func (s *ShardedTrader) withdrawAt(leg *shardLeg, offerID string) (done bool, err error) {
	switch err := leg.shard.Withdraw(offerID); {
	case err == nil:
		s.withdrs.Add(1)
		leg.offers.Add(-1)
		return true, nil
	case errors.Is(err, ErrNoSuchOffer):
		return false, nil
	default:
		return false, err
	}
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

	// Previous owners of moving buckets are queried strictly before the
	// current owners, and the import re-runs if the ring epoch moved: the
	// window rule of hashring.Partition, without which a miss is the classic
	// double-read race. Nothing advertised substituting for the request is
	// no leg and an empty match, not an error (same as a single trader with
	// no matching bucket). One leg or several, the answers meet in finish.
	var buf [mergeBuf]hit
	var legBuf [8]leg
	var res ImportResult
	var all []hit
	for attempt := 0; ; attempt++ {
		epoch, oldLegs, curLegs := s.targetShards(req.ServiceType, legBuf[:0])
		res, all = ImportResult{}, buf[:0]
		all = queryAll(q, oldLegs, sub, &res, all)
		all = queryAll(q, curLegs, sub, &res, all)
		s.queried.Add(uint64(res.LinksQueried))
		if s.part.View().Epoch() == epoch || attempt >= 3 {
			break
		}
	}
	if ins := s.insp.Load(); ins != nil {
		ins.ShardsPerImport.Observe(uint64(res.LinksQueried))
	}
	if req.MaxHops > 0 {
		sub.MaxHops = req.MaxHops - 1
		all = s.federate(q, sub, &res, all)
	}
	res = s.finish(q, req, res, all)
	q.release()
	return res, nil
}

// federate puts the sub-request, one hop shorter, to every federation link
// — concurrently, through the shards' fan-out — whose answers the merge
// takes after the shards' (a diamond answers twice; finish dedupes).
// Without a link it allocates nothing.
func (s *ShardedTrader) federate(q importQuery, sub ImportRequest, res *ImportResult, all []hit) []hit {
	links := s.linkLegs()
	if len(links) == 0 {
		return all
	}
	s.feder.Add(uint64(len(links)))
	skipped, failed := res.LinksSkipped, res.LinksFailed
	all = queryAll(q, links, sub, res, all)
	s.linksSkipped.Add(uint64(res.LinksSkipped - skipped))
	s.linksFailed.Add(uint64(res.LinksFailed - failed))
	return all
}

// Link federates this trading function with another (or with a proxy to a
// remote one). Imports with MaxHops > 0 propagate along links.
func (s *ShardedTrader) Link(name string, target Importer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.links[name] = target
}

// linkLegs snapshots the federation links in name order (a deterministic
// merge order). A dead federation partner must not fail the import: its
// error is reported for the degradation metadata.
func (s *ShardedTrader) linkLegs() []leg {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.links))
	for n := range s.links {
		names = append(names, n)
	}
	slices.Sort(names)
	legs := make([]leg, len(names))
	for i, n := range names {
		legs[i].imp = s.links[n]
	}
	return legs
}

// targetShards maps a requested service type to the shard legs that must
// be queried under one routing view, whose epoch it returns: the previous
// owners of candidate types a ring change is moving (read first) and the
// current owners of every advertised candidate type (read after — see
// ImportEx for why the order matters), both appended to buf. A leg appears
// in at most one slice; within one change window the donating and
// receiving shard sets are disjoint, so a leg in the old slice is never
// the new owner of another moving type. Most imports have one current
// owner and no moving type: one leg, which costs what its store does.
func (s *ShardedTrader) targetShards(serviceType string, buf []leg) (epoch uint64, oldLegs, curLegs []leg) {
	cands := closureOver(&s.closure, &s.mu, s.advertised, s.types, serviceType)
	v := s.part.View()
	legs := buf[:0]
	add := func(l *shardLeg, ok bool) {
		if ok && !slices.ContainsFunc(legs, func(x leg) bool { return x.routed == &l.imports }) {
			legs = append(legs, leg{imp: l.shard, routed: &l.imports})
		}
	}
	for _, ct := range cands {
		add(v.Prev(ct))
	}
	n := len(legs)
	for _, ct := range cands {
		_, l, ok := v.Owner(ct)
		add(l, ok)
	}
	return v.Epoch(), legs[:n], legs[n:]
}

// AddShard joins a shard to the ring and live-migrates every bucket
// whose ownership moved to it. Lookups keep flowing throughout: moving
// types are double-queried (old + new owner) until their copy completes.
// The shard name should match the underlying trader's name so withdraw
// prefix-routing stays exact (mismatches still work via the fallback).
func (s *ShardedTrader) AddShard(name string, shard Shard) error {
	return s.part.Add(name, &shardLeg{shard: shard}, s.drain)
}

// RemoveShard drains a shard off the ring, live-migrating its buckets to
// their new owners, then drops it. The shard object itself is not
// closed; the caller owns its lifecycle.
func (s *ShardedTrader) RemoveShard(name string) error {
	return s.part.Remove(name, s.drain)
}

// drain is the trader's half of a ring change: it moves each bucket the
// donor gives up to its new owner. The bucket is read through the import
// interface, so a remote shard donates too, and each offer is installed at
// the new owner (Install keeps its id) before it is withdrawn from the
// donor — an offer is always importable from at least one double-queried
// owner. A copy stays only if the donor still held the original: a client
// withdraw that reached the donor after the bucket was read leaves
// ErrNoSuchOffer there, and the copy is withdrawn too.
func (s *ShardedTrader) drain(from string, fromLeg *shardLeg, dest func(string) (*shardLeg, bool)) error {
	s.mu.RLock()
	types := make([]string, 0, len(s.advertised))
	for t := range s.advertised {
		types = append(types, t)
	}
	s.mu.RUnlock()
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for _, t := range types {
		toLeg, ok := dest(t)
		if !ok {
			continue
		}
		batch, err := fromLeg.shard.Import(ImportRequest{ServiceType: t})
		if err != nil {
			fail(fmt.Errorf("trader: migrating %s off %s: %w", t, from, err))
			continue
		}
		for _, o := range batch {
			if o.ServiceType != t {
				continue // a subtype's offer, which lives in its own bucket
			}
			if err := toLeg.shard.Install(o); err != nil {
				fail(fmt.Errorf("trader: installing %s off %s: %w", o.ID, from, err))
				continue
			}
			toLeg.offers.Add(1)
			switch err := fromLeg.shard.Withdraw(o.ID); {
			case errors.Is(err, ErrNoSuchOffer):
				if toLeg.shard.Withdraw(o.ID) == nil {
					toLeg.offers.Add(-1)
				}
				continue
			case err != nil:
				fail(fmt.Errorf("trader: withdrawing migrated %s from %s: %w", o.ID, from, err))
			}
			fromLeg.offers.Add(-1)
			s.migrated.Add(1)
		}
	}
	return firstErr
}

// ShardStats returns a snapshot of front-end counters.
func (s *ShardedTrader) ShardStats() ShardStats {
	v := s.part.View()
	return ShardStats{
		Exports:       s.exports.Load(),
		Withdraws:     s.withdrs.Load(),
		Imports:       s.imports.Load(),
		Matched:       s.matched.Load(),
		ShardsQueried: s.queried.Load(),
		Rebalances:    v.Settled(),
		Migrated:      s.migrated.Load(),
		RingEpoch:     v.Epoch(),
		Shards:        len(v.Members()),
		Federated:     s.feder.Load(),
		LinksSkipped:  s.linksSkipped.Load(),
		LinksFailed:   s.linksFailed.Load(),
	}
}

// LegStats returns each shard's routing counts, keyed by shard name; a
// shard leaves it once RemoveShard has drained it.
func (s *ShardedTrader) LegStats() map[string]LegStats {
	v := s.part.View()
	names := v.Names()
	out := make(map[string]LegStats, len(names))
	for i, leg := range v.Members() {
		ls := LegStats{
			Offers:        leg.offers.Load(),
			RoutedExports: leg.exports.Load(),
			RoutedImports: leg.imports.Load(),
		}
		if t, ok := leg.shard.(*Trader); ok {
			ls.Considered = t.consid.Load()
		}
		out[names[i]] = ls
	}
	return out
}
