package trader

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
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
// sub-request (subRequest) to the stores that hold them (queryAll — the
// shards, then the links, at a front-end; its own store at a trader), and
// merge the answers, by reference (hit), at the origin: dedupe, order,
// truncate, copy each offer kept once, count (finish). Only the middle —
// which stores, in which order — belongs to the deployment.

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
	scratch  *parseScratch    // what a parse the memo did not hold went into, nil when none did
	latency  *mgmt.Histogram
	start    time.Time // set when metered
}

// begin validates a request before any store is consulted — a bad one
// costs no query and is not counted — and opens its accounting. A request
// that an import in this process made its legs' sub-request carries that
// import's parse, which a leg takes instead of parsing again. The query
// may hold a parse scratch, which the caller gives back (release) once the
// import has answered; a request begin refuses holds none.
func (c *importCore) begin(req ImportRequest) (q importQuery, err error) {
	q.kind = req.Preference.Kind
	if req.ServiceType == "" {
		return q, fmt.Errorf("%w: empty service type", ErrBadRequest)
	}
	if req.MaxMatches < 0 || req.MaxHops < 0 {
		return q, fmt.Errorf("%w: negative bounds", ErrBadRequest)
	}
	if req.MaxHops > maxHops {
		return q, fmt.Errorf("%w: %d hops, at most %d", ErrBadRequest, req.MaxHops, maxHops)
	}
	defer func() {
		if err != nil {
			q.release()
		}
	}()
	if q.expr, err = q.parse(0, req.expr, req.Constraint); err != nil {
		return q, err
	}
	switch q.kind {
	case PrefFirst, PrefRandom:
	case PrefMax, PrefMin:
		if q.prefExpr, err = q.parse(1, req.prefExpr, req.Preference.Expr); err != nil {
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

// parse returns the parse of src: carried when it was made from the same
// source (an Expr is immutable while the import runs, so its legs share
// it across goroutines), else constraint.ParseInto's, which a recent import
// of the same text has most likely left in its memo, and which compiles
// any other source into buffer i of the query's parse scratch, taken here
// on first need.
func (q *importQuery) parse(i int, carried *constraint.Expr, src string) (*constraint.Expr, error) {
	if carried != nil && carried.String() == src {
		return carried, nil
	}
	if q.scratch == nil {
		q.scratch = parseScratches.Get(func() *parseScratch { return new(parseScratch) })
	}
	return constraint.ParseInto(&q.scratch[i], src)
}

// release empties the query's parse scratch and gives it back. It is
// called once nothing evaluates what was compiled into it: after finish at
// an origin, after localMatches at a leg — fanout.Do has waited for every
// leg by then. A program's strings point into the source of the request it
// was compiled from, so each buffer is cleared to its whole capacity: a
// kept scratch pins no request's text.
func (q *importQuery) release() {
	s := q.scratch
	if s == nil {
		return
	}
	for i := range s {
		if len(s[i].String()) > parseScratchMaxLen {
			s[i] = constraint.Expr{}
		} else {
			constraint.ParseInto(&s[i], "")
		}
	}
	parseScratches.Put(s)
	q.scratch = nil
}

// parseScratch is the pair of buffers an import compiles its constraint
// (0) and its preference (1) into when the memo does not hold them.
type parseScratch [2]constraint.Expr

// parseScratchMaxLen bounds what an idle parse scratch holds: a program
// compiled from a longer source, which may have grown to one node per byte,
// is dropped before its scratch is kept. So a kept program has at most 256
// nodes of 40 B, and the 8 scratches parseScratches keeps hold under
// 8 × 2 × 10 KiB.
const parseScratchMaxLen = 256

// parseScratches keeps up to 8 idle parse scratches.
var parseScratches = make(bufpool.List[*parseScratch], 8)

// subRequest is the one request an import puts to each of its legs: the
// shards and the federation links of a front-end, or a trader's own store. A leg answers with its best MaxMatches under the caller's
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

// finish turns the merge — every leg's hits, appended in leg order — into
// the import's answer: deduplicated by offer id, put in the preference's
// order (PrefFirst keeps the merge order), truncated to MaxMatches, and
// only then copied, the offers kept and no other, into the one slice the
// import returns; then counted.
func (c *importCore) finish(q importQuery, req ImportRequest, res ImportResult, all []hit) ImportResult {
	for i := range all {
		all[i].r.pos = uint64(i)
	}
	if res.LinksQueried > 1 {
		// A diamond federation, or an offer mid-migration, answers twice:
		// sorted by id, each offer's earliest merge position comes first.
		slices.SortFunc(all, func(a, b hit) int {
			return cmp.Or(strings.Compare(a.o.ID, b.o.ID), cmp.Compare(a.r.pos, b.r.pos))
		})
		all = slices.CompactFunc(all, func(a, b hit) bool { return a.o.ID == b.o.ID })
	}
	slices.SortFunc(all, func(a, b hit) int { return compareRanks(a.r, b.r) })
	if q.kind == PrefRandom {
		c.rngMu.Lock()
		c.rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		c.rngMu.Unlock()
	}
	if k := req.MaxMatches; k > 0 && len(all) > k {
		all = all[:k]
	}
	res.Offers = make([]Offer, len(all))
	for i, h := range all {
		res.Offers[i] = *h.o
	}
	c.count(q, len(res.Offers))
	return res
}

// count closes an import's accounting: the offers it answered with and,
// when metered, its latency.
func (c *importCore) count(q importQuery, matched int) {
	c.matched.Add(uint64(matched))
	if q.latency != nil {
		q.latency.ObserveDuration(time.Since(q.start))
	}
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

// hit is one offer of a leg's answer, by reference, and its rank: the
// store's own for a store in this process, the origin's for any other leg.
// The merge position replaces pos at the origin.
type hit struct {
	o *Offer
	r rank
}

// leg is one store an import asks: a shard, which counts the imports
// routed to it, or a federation link.
type leg struct {
	imp    Importer
	routed *atomic.Uint64 // nil for a link
}

// query puts the sub-request to the leg and appends its answer to dst. A
// store in this process answers by reference (Trader.answerLeg); any other
// leg through its Import, whose offers are referenced in place.
func (l leg) query(q importQuery, sub ImportRequest, dst []hit) ([]hit, error) {
	if l.routed != nil {
		l.routed.Add(1)
	}
	if t, ok := l.imp.(*Trader); ok {
		return t.answerLeg(sub, dst)
	}
	offers, err := l.imp.Import(sub)
	for i := 0; err == nil && i < len(offers); i++ {
		dst = append(dst, hit{&offers[i], q.rankOf(offers[i].Properties, 0)})
	}
	return dst, err
}

// queryAll puts the sub-request to every leg and appends their answers to
// all in leg order: inline for one leg, so a store selects straight into
// the merge; else bounded-parallel (maxLinkFanout) with the caller as one
// of the workers, so the import costs the slowest leg, not their sum, each
// leg selecting into its own stretch of one slab of a reused fanScratch.
func queryAll(q importQuery, legs []leg, sub ImportRequest, res *ImportResult, all []hit) []hit {
	switch len(legs) {
	case 0:
		return all
	case 1:
		all, err := legs[0].query(q, sub, all)
		res.asked(err)
		return all
	}
	w := 0 // room for the best k and one more, to insert before the worst drops out
	if k := sub.MaxMatches; k > 0 && k < mergeBuf {
		w = k + 1
	}
	s := fanScratches.Get(newFanScratch)
	s.q, s.sub = q, sub
	s.slab = slices.Grow(s.slab[:0], len(legs)*w)[:len(legs)*w]
	s.calls = slices.Grow(s.calls[:0], len(legs))[:len(legs)]
	for i := range s.calls {
		s.calls[i] = legCall{l: legs[i], hits: s.slab[i*w : i*w : (i+1)*w]}
	}
	fanout.Do(len(legs), maxLinkFanout, s.query)
	for _, c := range s.calls {
		res.asked(c.err)
		all = append(all, c.hits...)
	}
	// fanout.Do has returned, so no leg holds the scratch any more. Cleared,
	// it keeps no offer and no request alive while it waits to be reused.
	clear(s.slab)
	clear(s.calls)
	s.q, s.sub = importQuery{}, ImportRequest{}
	if len(legs) <= maxLinkFanout {
		fanScratches.Put(s)
	}
	return all
}

// fanScratch is what a multi-leg import's fan-out works in: its query and
// sub-request, one call per leg, and the slab the legs select into. It is
// kept between imports, and query, the function each worker runs, is made
// once with it, so a fan-out allocates none of them.
type fanScratch struct {
	q     importQuery
	sub   ImportRequest
	calls []legCall
	slab  []hit
	query func(i int) // puts the sub-request to calls[i].l
}

// legCall is one leg of a fan-out and its answer.
type legCall struct {
	l    leg
	hits []hit
	err  error
}

// fanScratches keeps up to 8 idle scratches. queryAll puts back only one
// of at most maxLinkFanout legs, whose slab is at most 16 × 64 hits of
// 32 B, so what waits here stays under 8 × 33 KiB.
var fanScratches = make(bufpool.List[*fanScratch], 8)

func newFanScratch() *fanScratch {
	s := new(fanScratch)
	s.query = func(i int) {
		c := &s.calls[i]
		c.hits, c.err = c.l.query(s.q, s.sub, c.hits)
	}
	return s
}

// asked counts one leg asked and, if it did not answer, why: either cause
// marks the view partial.
func (res *ImportResult) asked(err error) {
	res.LinksQueried++
	switch {
	case err == nil:
		return
	case errors.Is(err, policy.ErrCircuitOpen):
		res.LinksSkipped++
	default:
		res.LinksFailed++
	}
	res.Degraded = true
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
