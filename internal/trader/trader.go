// Package trader implements the ODP Trading function (Section 8.3.2 of
// the tutorial): "a dating service for objects".
//
// Server objects advertise services by exporting offers — an interface
// reference plus a service type and a property list. Client objects import
// by service type and a constraint over the properties (package
// constraint); matching uses the type repository's substitutability
// relation, so an offer of a subtype satisfies an import of its supertype
// (the BankManager-for-BankTeller rule of Figure 3). The trading function
// is the front-end (ShardedTrader) over one or more offer stores (Trader);
// front-ends federate through links, giving hop-bounded import
// propagation across trading domains.
//
// The offer store is indexed by advertised service type: an import scans
// only the buckets whose type substitutes for the requested one, and the
// set of such buckets (the subtype closure of the request) is memoised
// against the type repository's generation, so the common import touches
// a handful of map lookups plus the matching bucket — not the full offer
// population. Shards and federation links are queried concurrently and
// merged, deduplicated, at the origin.
package trader

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/constraint"
	"repro/internal/naming"
	"repro/internal/typerepo"
	"repro/internal/values"
)

// Trader error sentinels.
var (
	ErrNoSuchOffer  = errors.New("trader: no such offer")
	ErrTypeUnknown  = errors.New("trader: service type not in type repository")
	ErrTypeMismatch = errors.New("trader: offered interface does not substitute for service type")
	ErrBadRequest   = errors.New("trader: invalid import request")
	ErrBadProps     = errors.New("trader: offer properties must be a record")
)

// maxLinkFanout bounds the goroutines a single import spawns to query its
// shards or its federation links.
const maxLinkFanout = 16

// maxHops bounds an import's MaxHops: each hop nests an import, and a
// cycle of links answers for as long as hops remain.
const maxHops = 8

// mergeBuf is how many hits an import merges on the stack.
const mergeBuf = 64

// Offer is one service advertisement held by a trader.
type Offer struct {
	ID          string              // unique within the federation: "<trader>/<seq>"
	ServiceType string              // advertised service type name
	Ref         naming.InterfaceRef // the offered interface
	Properties  values.Value        // record of service attributes
}

// PreferenceKind orders the matched offers of an import.
type PreferenceKind int

// The preference rules: first (export order), random, max/min of a
// numeric expression over the offer properties.
const (
	PrefFirst PreferenceKind = iota
	PrefRandom
	PrefMax
	PrefMin
)

// Preference selects among matching offers.
type Preference struct {
	Kind PreferenceKind
	Expr string // for PrefMax/PrefMin: numeric expression over properties
}

// ImportRequest is a client's service request.
type ImportRequest struct {
	// ServiceType names the wanted interface type. Offers whose advertised
	// type substitutes for it (per the type repository) match.
	ServiceType string
	// Constraint filters offers by their properties ("" = all).
	Constraint string
	// Preference orders the matches.
	Preference Preference
	// MaxMatches bounds the result (0 = all).
	MaxMatches int
	// MaxHops bounds federation traversal: 0 asks no federation link.
	MaxHops int

	// expr and prefExpr carry the parse of Constraint and Preference.Expr
	// from an import to the sub-request it puts to its legs, so a leg in
	// this process does not parse them again. A Remote sends only the
	// exported fields; the trader at the far end parses.
	expr, prefExpr *constraint.Expr
}

// Importer is anything that can answer an import — a front-end, a store
// or a proxy to a remote one. Federation links hold Importers. The offers
// returned are the caller's, and an import in this process never writes
// them: it merges them by reference and copies out the ones it keeps.
type Importer interface {
	Import(req ImportRequest) ([]Offer, error)
}

// ImportResult is an import's answer plus its degradation metadata: when
// legs (shards, federation links) were skipped (open circuit) or failed,
// the offers are still the best available but the view is partial.
type ImportResult struct {
	Offers []Offer
	// Degraded is set when at least one leg did not contribute: its offers
	// may be missing from the result.
	Degraded     bool
	LinksQueried int // legs consulted this import, shards and links
	LinksSkipped int // legs passed over because their circuit was open
	LinksFailed  int // legs that returned an error
}

// entry is one stored offer plus its export sequence number, which
// recovers the global export order when matches from several buckets are
// merged. An entry is allocated with the offer it was inserted with:
// offer points at born until a Modify points it at a fresh copy. born is
// never written once the entry is stored, so a modified entry keeps its
// first offer until it is withdrawn.
type entry struct {
	offer *Offer
	seq   uint64
	born  Offer
}

// Trader is a repository of service offers with type-checked matching: the
// store a front-end routes to.
type Trader struct {
	importCore
	name string

	mu      sync.RWMutex
	offers  map[string]*entry   // offer id -> entry
	buckets map[string][]*entry // advertised service type -> entries in export order; a key is never deleted
	nextID  uint64
	closure closureMemo // over the bucket types

	consid atomic.Uint64
}

// New creates a trader backed by a type repository. The name prefixes
// offer identifiers and must be unique within a federation.
func New(name string, repo typerepo.Repository) *Trader {
	t := &Trader{
		name:    name,
		offers:  make(map[string]*entry),
		buckets: make(map[string][]*entry),
	}
	t.importCore.init(repo, name, 1)
	return t
}

// Export advertises a service: the interface in ref, offered as
// serviceType, with the given properties (a record value, or Null for
// none). The advertised type and the interface's actual type must both be
// registered, and the actual type must substitute for the advertised one.
func (t *Trader) Export(serviceType string, ref naming.InterfaceRef, props values.Value) (string, error) {
	return t.insert(Offer{ServiceType: serviceType, Ref: ref, Properties: props})
}

// Install inserts an offer under its existing identity. Where Export
// mints a fresh "<trader>/<seq>" id, Install preserves the one the offer
// was born with — the operation shard rebalancing needs, so an offer
// migrated between shard traders keeps the id clients hold. Installing an
// id that is already present replaces that offer (migration retries are
// idempotent). The same type checks as Export apply.
func (t *Trader) Install(o Offer) error {
	if o.ID == "" {
		return fmt.Errorf("%w: install needs an offer id", ErrBadRequest)
	}
	_, err := t.insert(o)
	return err
}

// recordProps is the one rule for offer properties: a record, Null
// standing for (and replaced by) the empty one.
func recordProps(props *values.Value) error {
	if props.IsNull() {
		*props = values.Record()
	}
	if props.Kind() != values.KindRecord {
		return fmt.Errorf("%w: got %v", ErrBadProps, props.Kind())
	}
	return nil
}

// insert type-checks an offer and stores a copy of it at the end of the
// export order: under its own id, replacing whatever held it, or — when it
// has none yet — under a freshly minted one. It returns the id.
func (t *Trader) insert(o Offer) (string, error) {
	if err := recordProps(&o.Properties); err != nil {
		return "", err
	}
	if _, err := t.types.LookupInterface(o.ServiceType); err != nil {
		return "", fmt.Errorf("%w: %q", ErrTypeUnknown, o.ServiceType)
	}
	if o.Ref.TypeName != o.ServiceType {
		ok, err := t.types.IsSubtype(o.Ref.TypeName, o.ServiceType)
		if err != nil {
			return "", fmt.Errorf("%w: %q", ErrTypeUnknown, o.Ref.TypeName)
		}
		if !ok {
			return "", fmt.Errorf("%w: %q as %q", ErrTypeMismatch, o.Ref.TypeName, o.ServiceType)
		}
	}
	e := &entry{born: o}
	e.offer = &e.born
	t.mu.Lock()
	t.nextID++
	e.seq = t.nextID
	if o.ID == "" {
		var buf [48]byte
		e.born.ID = string(strconv.AppendUint(append(append(buf[:0], t.name...), '/'), e.seq, 10))
	} else if old, ok := t.offers[o.ID]; ok {
		t.removeLocked(old)
	}
	t.offers[e.born.ID] = e
	// A brand-new bucket type grows the universe the closure memo is
	// versioned by, which is all the invalidation it needs.
	t.buckets[o.ServiceType] = append(t.buckets[o.ServiceType], e)
	t.mu.Unlock()
	return e.born.ID, nil
}

// removeLocked unlinks an entry from the offer map and its bucket. Caller
// holds t.mu.
func (t *Trader) removeLocked(e *entry) {
	delete(t.offers, e.offer.ID)
	bucket := t.buckets[e.offer.ServiceType]
	for i, be := range bucket {
		if be == e {
			copy(bucket[i:], bucket[i+1:])
			bucket[len(bucket)-1] = nil // clear the vacated slot
			t.buckets[e.offer.ServiceType] = bucket[:len(bucket)-1]
			break
		}
	}
}

// Withdraw removes an offer.
func (t *Trader) Withdraw(offerID string) error {
	t.mu.Lock()
	e, ok := t.offers[offerID]
	if !ok {
		t.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoSuchOffer, offerID)
	}
	t.removeLocked(e)
	t.mu.Unlock()
	return nil
}

// Modify replaces an offer's properties. It is copy-on-write: a stored
// offer is never written, so an import that read a pointer to it under the
// read lock may copy it after releasing the lock; Modify stores a fresh one.
func (t *Trader) Modify(offerID string, props values.Value) error {
	if err := recordProps(&props); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.offers[offerID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchOffer, offerID)
	}
	o := *e.offer
	o.Properties = props
	e.offer = &o
	return nil
}

// Offer returns a copy of the identified offer.
func (t *Trader) Offer(offerID string) (Offer, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, ok := t.offers[offerID]
	if !ok {
		return Offer{}, fmt.Errorf("%w: %q", ErrNoSuchOffer, offerID)
	}
	return *e.offer, nil
}

// Len returns the number of offers held.
func (t *Trader) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.offers)
}

// Import finds the offers this store holds matching the request: correct
// (sub)type, constraint satisfied, ordered by the preference, truncated to
// MaxMatches. A store has no federation links, so MaxHops is not consulted.
func (t *Trader) Import(req ImportRequest) ([]Offer, error) {
	res, err := t.ImportEx(req)
	return res.Offers, err
}

// ImportEx is Import as a front-end's ImportEx answers it, with its own
// store as the one leg: nothing to degrade, so the metadata is always zero.
func (t *Trader) ImportEx(req ImportRequest) (ImportResult, error) {
	q, err := t.begin(req)
	if err != nil {
		return ImportResult{}, err
	}
	var buf [mergeBuf]hit
	res := t.finish(q, req, ImportResult{}, t.localMatches(q, req.ServiceType, q.subRequest(req).MaxMatches, buf[:0]))
	q.release()
	return res, nil
}

// answerLeg is the store's import as a leg of an import in this process
// asks it: counted as the store's own, answered by reference
// (localMatches), appended to dst.
func (t *Trader) answerLeg(sub ImportRequest, dst []hit) ([]hit, error) {
	q, err := t.begin(sub)
	if err != nil {
		return dst, err
	}
	n := len(dst)
	dst = t.localMatches(q, sub.ServiceType, sub.MaxMatches, dst)
	q.release()
	t.count(q, len(dst)-n)
	return dst, nil
}

// localMatches answers an import from this trader's own store and appends
// the answer to dst: the offers of the candidate buckets for serviceType —
// its subtype closure over the types currently advertised — that satisfy
// the constraint, each with its rank; with k > 0 the best k under the
// preference, in rank order, else all of them in export order (rank order
// when several buckets merge). The scan runs under the read lock, so Modify
// cannot race the evaluation, and answers pointers to the stored offers:
// Modify is copy-on-write, so they stay whole once the lock is released,
// and nothing is copied here.
func (t *Trader) localMatches(q importQuery, serviceType string, k int, dst []hit) []hit {
	cands := closureOver(&t.closure, &t.mu, t.buckets, t.types, serviceType)
	if len(cands) == 0 {
		return dst
	}
	// A k that dst has room for is selected in place: dst's tail holds the
	// best k so far and a slot to insert into before the worst drops out.
	// Any other k — 0 for all, or a large one, which may come off the wire
	// and would cost up to k moves per match — collects every match and
	// sorts once.
	base := len(dst)
	selecting := k > 0 && base+k < cap(dst)
	considered := 0
	t.mu.RLock()
	for _, bt := range cands {
		for _, e := range t.buckets[bt] {
			considered++
			if ok, err := q.expr.Matches(e.offer.Properties); err != nil || !ok {
				// A constraint referencing properties this offer lacks simply
				// does not match it; true evaluation errors (type abuse) do
				// the same rather than failing the whole import.
				continue
			}
			h := hit{e.offer, q.rankOf(e.offer.Properties, e.seq)}
			if !selecting {
				dst = append(dst, h)
				continue
			}
			best := dst[base:]
			if len(best) == k && compareRanks(h.r, best[k-1].r) > 0 {
				continue
			}
			i := sort.Search(len(best), func(i int) bool { return compareRanks(h.r, best[i].r) < 0 })
			best = slices.Insert(best, i, h)
			dst = dst[:base+min(len(best), k)]
		}
	}
	t.mu.RUnlock()
	if !selecting && (k > 0 || len(cands) > 1) {
		// Matches from one bucket are in export order already.
		slices.SortFunc(dst[base:], func(a, b hit) int { return compareRanks(a.r, b.r) })
		if k > 0 && len(dst)-base > k {
			dst = dst[:base+k]
		}
	}
	t.consid.Add(uint64(considered))
	return dst
}
