package trader

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/constraint"
	"repro/internal/fanout"
	"repro/internal/mgmt"
	"repro/internal/policy"
	"repro/internal/typerepo"
)

// This file is what a Trader and a ShardedTrader share of answering an
// import. The trading function is one function however it is deployed, so
// the pipeline is written once: validate the request (begin), find which
// advertised types can satisfy it (closureOver), query the stores that
// hold them (queryAll — federation links at a trader, shards at a
// front-end), merge their answers at the origin (ImportResult.merge), then
// order, truncate and count (finish). Only the middle — which stores, in
// which order — belongs to the deployment.

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
	expr     *constraint.Expr // the parsed constraint
	prefExpr *constraint.Expr // the parsed preference expression, for PrefMax/PrefMin
	latency  *mgmt.Histogram
	start    time.Time // set when metered
}

// begin validates a request before any store is consulted — a bad one
// costs no query and is not counted — and opens its accounting.
func (c *importCore) begin(req ImportRequest) (importQuery, error) {
	var q importQuery
	if req.ServiceType == "" {
		return q, fmt.Errorf("%w: empty service type", ErrBadRequest)
	}
	if req.MaxMatches < 0 || req.MaxHops < 0 {
		return q, fmt.Errorf("%w: negative bounds", ErrBadRequest)
	}
	var err error
	if q.expr, err = constraint.Parse(req.Constraint); err != nil {
		return q, err
	}
	if req.Preference.Kind == PrefMax || req.Preference.Kind == PrefMin {
		if q.prefExpr, err = constraint.Parse(req.Preference.Expr); err != nil {
			return q, err
		}
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

// finish turns the merged matches into the import's answer: ordered by
// the preference, truncated to MaxMatches, counted.
func (c *importCore) finish(q importQuery, req ImportRequest, res ImportResult, matches []Offer) (ImportResult, error) {
	if err := orderOffers(matches, req.Preference, q.prefExpr, &c.rngMu, c.rng); err != nil {
		return ImportResult{}, err
	}
	if req.MaxMatches > 0 && len(matches) > req.MaxMatches {
		matches = matches[:req.MaxMatches]
	}
	c.matched.Add(uint64(len(matches)))
	if q.latency != nil {
		q.latency.ObserveDuration(time.Since(q.start))
	}
	res.Offers = matches
	return res, nil
}

// queryable is one store an import fans out to.
type queryable interface {
	query(sub ImportRequest) ([]Offer, error)
}

// queryAll puts the sub-request to every leg — inline for one, else
// bounded-parallel (maxLinkFanout) with the caller as one of the workers,
// so the import costs the slowest leg, not their sum — and returns the
// per-leg answers and errors, index-aligned with legs.
func queryAll[L queryable](legs []L, sub ImportRequest) ([][]Offer, []error) {
	results := make([][]Offer, len(legs))
	errs := make([]error, len(legs))
	if len(legs) == 1 {
		results[0], errs[0] = legs[0].query(sub)
		return results, errs
	}
	fanout.Do(len(legs), maxLinkFanout, func(i int) {
		results[i], errs[i] = legs[i].query(sub)
	})
	return results, errs
}

// merge folds one round of leg answers into the result: the offers of the
// legs that answered join matches unless seen already — origin-side
// dedupe by offer id, since a diamond federation or an offer mid-migration
// answers twice — and the legs that did not are counted by cause, which
// marks the view partial.
func (res *ImportResult) merge(matches []Offer, seen map[string]bool, results [][]Offer, errs []error) []Offer {
	res.LinksQueried += len(errs)
	for i, err := range errs {
		switch {
		case err == nil:
			for _, o := range results[i] {
				if !seen[o.ID] {
					seen[o.ID] = true
					matches = append(matches, o)
				}
			}
		case errors.Is(err, policy.ErrCircuitOpen):
			res.LinksSkipped++
		default:
			res.LinksFailed++
		}
	}
	res.Degraded = res.LinksSkipped+res.LinksFailed > 0
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
