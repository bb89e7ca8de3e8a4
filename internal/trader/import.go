package trader

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/constraint"
	"repro/internal/fanout"
	"repro/internal/mgmt"
	"repro/internal/policy"
	"repro/internal/typerepo"
	"repro/internal/values"
)

// This file is what a Trader and a ShardedTrader share of answering an
// import. The trading function is one function however it is deployed, so
// the pipeline is written once: validate and parse the request (begin),
// find which advertised types can satisfy it (closureOver), put one
// sub-request (subRequest) to the stores that hold them (queryAll —
// federation links at a trader, shards at a front-end), merge their
// answers at the origin (ImportResult.merge), then order, truncate and
// count (finish). Only the middle — which stores, in which order — belongs
// to the deployment.

// importCore is the state of the pipeline's two ends.
type importCore struct {
	types typerepo.Repository

	rngMu sync.Mutex
	rng   *rand.Rand // PrefRandom's generator

	imports, matched atomic.Uint64
	latency          atomic.Pointer[mgmt.Histogram] // the management bundle's import latency, nil when off
}

// init seeds the generator from the trader's name, so a run is
// reproducible and two traders do not shuffle alike.
func (c *importCore) init(repo typerepo.Repository, name string, seed int64) {
	for _, r := range name {
		seed = seed*31 + int64(r)
	}
	c.types = repo
	c.rng = rand.New(rand.NewSource(seed))
}

// importQuery is one validated import in progress.
type importQuery struct {
	kind     PreferenceKind
	expr     *constraint.Expr // the parsed constraint
	prefExpr *constraint.Expr // the parsed preference expression, for PrefMax/PrefMin
	latency  *mgmt.Histogram
	start    time.Time // set when metered
}

// begin validates a request before any store is consulted — a bad one
// costs no query and is not counted — and opens its accounting. A request
// that an import in this process made its legs' sub-request carries that
// import's parse, which a leg takes instead of parsing again.
func (c *importCore) begin(req ImportRequest) (importQuery, error) {
	q := importQuery{kind: req.Preference.Kind}
	if req.ServiceType == "" {
		return q, fmt.Errorf("%w: empty service type", ErrBadRequest)
	}
	if req.MaxMatches < 0 || req.MaxHops < 0 {
		return q, fmt.Errorf("%w: negative bounds", ErrBadRequest)
	}
	var err error
	if q.expr, err = parsed(req.expr, req.Constraint); err != nil {
		return q, err
	}
	switch q.kind {
	case PrefFirst, PrefRandom:
	case PrefMax, PrefMin:
		if q.prefExpr, err = parsed(req.prefExpr, req.Preference.Expr); err != nil {
			return q, err
		}
	default:
		return q, fmt.Errorf("%w: unknown preference %d", ErrBadRequest, q.kind)
	}
	if _, err := c.types.LookupInterface(req.ServiceType); err != nil {
		return q, fmt.Errorf("%w: %q", ErrTypeUnknown, req.ServiceType)
	}
	c.imports.Add(1)
	if q.latency = c.latency.Load(); q.latency != nil {
		q.start = time.Now()
	}
	return q, nil
}

// parsed returns the parse of src: carried when it was made from the same
// source (an Expr is immutable, so the legs of one import share it across
// goroutines), else a fresh one.
func parsed(carried *constraint.Expr, src string) (*constraint.Expr, error) {
	if carried != nil && carried.String() == src {
		return carried, nil
	}
	return constraint.Parse(src)
}

// subRequest is the one request an import puts to each of its legs: the
// shards of a front-end, the federation links of a trader, and the trader's
// own store. A leg answers with its best MaxMatches under the caller's
// preference, and the origin merges, dedupes, orders and truncates. That
// loses nothing: an offer among the best k of the merge is among the best
// k of its own leg, since the leg ranks by the same (scoreable, score,
// export order) comparator, and origin-side dedupe keeps that true because
// a duplicate carries the same properties. A leg that answers with more
// than k, such as an older remote peer, is still answered correctly. The
// exception is PrefRandom: a shuffle needs every match, so its legs collect
// everything.
func (q importQuery) subRequest(req ImportRequest) ImportRequest {
	sub := req
	sub.expr, sub.prefExpr = q.expr, q.prefExpr
	if q.kind == PrefRandom {
		sub.MaxMatches = 0
		sub.Preference = Preference{}
	}
	return sub
}

// finish turns the merged matches into the import's answer: ordered by
// the preference, truncated to MaxMatches, counted.
func (c *importCore) finish(q importQuery, req ImportRequest, res ImportResult, matches []Offer) ImportResult {
	res.Offers = c.order(q, matches, req.MaxMatches)
	c.matched.Add(uint64(len(res.Offers)))
	if q.latency != nil {
		q.latency.ObserveDuration(time.Since(q.start))
	}
	return res
}

// order puts the merged matches in the preference's order and keeps the
// first k (0 = all). PrefFirst keeps the merge order: local export order,
// then the legs' answers in leg order.
func (c *importCore) order(q importQuery, matches []Offer, k int) []Offer {
	switch q.kind {
	case PrefRandom:
		c.rngMu.Lock()
		c.rng.Shuffle(len(matches), func(i, j int) {
			matches[i], matches[j] = matches[j], matches[i]
		})
		c.rngMu.Unlock()
	case PrefMax, PrefMin:
		var buf [64]rank // the usual merge, legs × k, ranks on the stack
		ranks := buf[:0]
		for i := range matches {
			ranks = append(ranks, q.rankOf(matches[i].Properties, uint64(i)))
		}
		slices.SortStableFunc(ranks, compareRanks)
		if k > 0 && len(ranks) > k {
			ranks = ranks[:k]
		}
		for i, r := range ranks {
			if r.pos != uint64(i) {
				// Not already in order, as a lone leg's ranked answer is.
				out := make([]Offer, len(ranks))
				for i, r := range ranks {
					out[i] = matches[r.pos]
				}
				return out
			}
		}
	}
	if k > 0 && len(matches) > k {
		matches = matches[:k]
	}
	return matches
}

// rank is an offer's place under the import's preference: scoreable offers
// first, by score — ascending for PrefMin, descending for PrefMax — then by
// pos, the export order at a store and the merge order at the origin.
// Under PrefFirst and PrefRandom nothing is scored, so pos alone decides.
type rank struct {
	ok  bool
	key float64 // the score, negated under PrefMax: a lower key comes first
	pos uint64
}

// rankOf scores an offer's properties. An offer the preference cannot
// score — an evaluation error, a non-numeric result, or NaN, which orders
// against nothing and would make the answer depend on the merge order —
// ranks after every offer it can.
func (q importQuery) rankOf(props values.Value, pos uint64) rank {
	r := rank{pos: pos}
	if q.prefExpr == nil {
		return r
	}
	v, err := q.prefExpr.Eval(props)
	if err != nil {
		return r
	}
	r.key, r.ok = constraint.AsFloat(v)
	r.ok = r.ok && !math.IsNaN(r.key)
	if q.kind == PrefMax {
		r.key = -r.key
	}
	return r
}

// compareRanks orders two ranks: negative when a comes first.
func compareRanks(a, b rank) int {
	if a.ok != b.ok {
		if a.ok {
			return -1
		}
		return 1
	}
	if a.ok && a.key != b.key {
		return cmp.Compare(a.key, b.key)
	}
	return cmp.Compare(a.pos, b.pos)
}

// queryable is one store an import fans out to.
type queryable interface {
	query(sub ImportRequest) ([]Offer, error)
}

// queryAll puts the sub-request to every leg — inline for one, else
// bounded-parallel (maxLinkFanout) with the caller as one of the workers,
// so the import costs the slowest leg, not their sum — and folds the
// answers into the result in leg order (add).
func queryAll[L queryable](legs []L, sub ImportRequest, res *ImportResult, matches []Offer, seen map[string]bool) []Offer {
	if len(legs) == 1 {
		offers, err := legs[0].query(sub)
		return res.add(matches, seen, offers, err)
	}
	results := make([][]Offer, len(legs))
	errs := make([]error, len(legs))
	fanout.Do(len(legs), maxLinkFanout, func(i int) {
		results[i], errs[i] = legs[i].query(sub)
	})
	for i := range legs {
		matches = res.add(matches, seen, results[i], errs[i])
	}
	return matches
}

// add folds one leg's answer into the result: if the leg answered, its
// offers join matches unless seen already — origin-side dedupe by offer
// id, since a diamond federation or an offer mid-migration answers twice —
// and if it did not, it is counted by cause, which marks the view partial.
// seen is nil when the import has a single leg: its answer, which an
// Importer hands to its caller, is then the merge.
func (res *ImportResult) add(matches []Offer, seen map[string]bool, offers []Offer, err error) []Offer {
	res.LinksQueried++
	switch {
	case err == nil && seen == nil:
		return offers
	case err == nil:
		for _, o := range offers {
			if !seen[o.ID] {
				seen[o.ID] = true
				matches = append(matches, o)
			}
		}
	case errors.Is(err, policy.ErrCircuitOpen):
		res.LinksSkipped++
		res.Degraded = true
	default:
		res.LinksFailed++
		res.Degraded = true
	}
	return matches
}

// closureMemo memoises, per requested service type, which types of a
// universe of advertised types substitute for it. The universe only ever
// grows, so (type-repository generation, universe size) versions it; the
// owner's lock guards the memo along with the universe.
type closureMemo struct {
	gen  uint64
	size int
	sets map[string][]string
}

// closureOver returns the types of universe — a set, read and memoised
// under mu — whose offers can satisfy an import of serviceType: its
// subtype closure over what is advertised.
func closureOver[V any](memo *closureMemo, mu *sync.RWMutex, universe map[string]V, repo typerepo.Repository, serviceType string) []string {
	gen := repo.Gen()
	mu.RLock()
	if memo.gen == gen && memo.size == len(universe) {
		if cands, ok := memo.sets[serviceType]; ok {
			mu.RUnlock()
			return cands
		}
	}
	keys := make([]string, 0, len(universe))
	for k := range universe {
		keys = append(keys, k)
	}
	mu.RUnlock()

	sort.Strings(keys)
	cands := make([]string, 0, 1)
	for _, k := range keys {
		if k == serviceType {
			cands = append(cands, k)
			continue
		}
		if ok, err := repo.IsSubtype(k, serviceType); err == nil && ok {
			cands = append(cands, k)
		}
	}

	mu.Lock()
	// A closure computed before the universe grew is stale, and memoising
	// it under the old version would evict the entries computed since: the
	// new type would be recomputed for, again and again. Lookups compare
	// the version with the live universe, so a stale entry is never served
	// either way.
	if len(universe) == len(keys) {
		if memo.sets == nil || memo.gen != gen || memo.size != len(keys) {
			memo.gen, memo.size, memo.sets = gen, len(keys), make(map[string][]string)
		}
		memo.sets[serviceType] = cands
	}
	mu.Unlock()
	return cands
}
