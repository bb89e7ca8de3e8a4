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
// returned are the caller's: an import reorders a lone leg's answer in
// place.
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
// merged.
type entry struct {
	offer *Offer
	seq   uint64
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
	return t.insert(&Offer{ServiceType: serviceType, Ref: ref, Properties: props})
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
	_, err := t.insert(&o)
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

// insert type-checks an offer and stores it — the trader keeps o — at the
// end of the export order: under its own id, replacing whatever held it,
// or — when it has none yet — under a freshly minted one. It returns the
// id.
func (t *Trader) insert(o *Offer) (string, error) {
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
	t.mu.Lock()
	t.nextID++
	if o.ID == "" {
		o.ID = fmt.Sprintf("%s/%d", t.name, t.nextID)
	} else if old, ok := t.offers[o.ID]; ok {
		t.removeLocked(old)
	}
	id := o.ID // o is shared once stored
	e := &entry{offer: o, seq: t.nextID}
	t.offers[id] = e
	// A brand-new bucket type grows the universe the closure memo is
	// versioned by, which is all the invalidation it needs.
	t.buckets[o.ServiceType] = append(t.buckets[o.ServiceType], e)
	t.mu.Unlock()
	return id, nil
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

// Modify replaces an offer's properties.
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
	e.offer.Properties = props
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

// ImportEx is Import as a front-end's ImportEx answers it; a store has no
// legs to degrade, so the metadata is always zero.
func (t *Trader) ImportEx(req ImportRequest) (ImportResult, error) {
	q, err := t.begin(req)
	if err != nil {
		return ImportResult{}, err
	}
	matches := t.localMatches(q, req.ServiceType, q.subRequest(req).MaxMatches)
	return t.finish(q, req, ImportResult{}, matches), nil
}

// localMatches answers an import from this trader's own store: the offers
// of the candidate buckets for serviceType — its subtype closure over the
// types currently advertised — that satisfy the constraint; with k > 0 the
// best k under the preference, in rank order, else all of them in export
// order. The scan runs under the read lock (so Modify cannot race the
// evaluation; concurrent imports still proceed in parallel) and ranks
// entries, so only the offers returned are copied.
func (t *Trader) localMatches(q importQuery, serviceType string, k int) []Offer {
	cands := closureOver(&t.closure, &t.mu, t.buckets, t.types, serviceType)
	if len(cands) == 0 {
		return nil
	}
	type pick struct {
		e *entry
		r rank
	}
	// A small k is selected in place: picks, on the stack, holds the best k
	// so far and a slot to insert into before the worst drops out. Any other
	// k — 0 for all, or a large one, which may come off the wire and would
	// cost up to k moves per match — collects every match and sorts once.
	var buf [16]pick
	picks := buf[:0]
	selecting := k > 0 && k < len(buf)
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
			p := pick{e, rank{pos: e.seq}}
			if k > 0 {
				p.r = q.rankOf(e.offer.Properties, e.seq)
			}
			if !selecting {
				picks = append(picks, p)
				continue
			}
			if len(picks) == k && compareRanks(p.r, picks[k-1].r) > 0 {
				continue
			}
			i := sort.Search(len(picks), func(i int) bool { return compareRanks(p.r, picks[i].r) < 0 })
			if picks = slices.Insert(picks, i, p); len(picks) > k {
				picks = picks[:k]
			}
		}
	}
	if !selecting && (k > 0 || len(cands) > 1) {
		// Unranked matches from one bucket are in export order already.
		slices.SortFunc(picks, func(a, b pick) int { return compareRanks(a.r, b.r) })
		if k > 0 && len(picks) > k {
			picks = picks[:k]
		}
	}
	out := make([]Offer, len(picks))
	for i, p := range picks {
		out[i] = *p.e.offer
	}
	t.mu.RUnlock()

	t.consid.Add(uint64(considered))
	return out
}
