package trader

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/constraint"
	"repro/internal/types"
	"repro/internal/values"
)

// The trading function is one function however it is deployed: a singleton
// Trader, a one-shard ShardedTrader and a four-shard one holding the same
// exports must answer the same imports. This is the oracle for every
// change to either import pipeline, and for making the singleton the
// one-shard case.

// offerKey identifies an offer by what a client can use of it. Offer ids
// carry the minting trader's name, so they differ between deployments.
func offerKey(o Offer) string {
	return fmt.Sprintf("%s|%s|%s", o.ServiceType, o.Ref, o.Properties)
}

func offerKeys(offers []Offer) []string {
	out := make([]string, len(offers))
	for i, o := range offers {
		out[i] = offerKey(o)
	}
	return out
}

// importer is the part of *Trader and *ShardedTrader the oracle drives.
type importer interface {
	Shard
	ImportEx(req ImportRequest) (ImportResult, error)
}

func TestSingletonOneShardAndManyShardsAgree(t *testing.T) {
	repo := repoWithBank(t)
	director := types.Extend("BankDirector", managerT(),
		types.Op("Audit", nil, types.Term("OK")))
	if err := repo.RegisterInterface(director); err != nil {
		t.Fatal(err)
	}
	sharded := func(name string, shards int) *ShardedTrader {
		st := NewSharded(name, repo, 0)
		for i := 0; i < shards; i++ {
			sn := fmt.Sprintf("%s-s%d", name, i)
			if err := st.AddShard(sn, New(sn, repo)); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	single, one, four := New("single", repo), sharded("one", 1), sharded("four", 4)

	// The same exports, in the same order, with distinct costs. The three
	// bank types interleave so the closure's export order crosses buckets.
	kinds := []string{"BankTeller", "BankManager", "BankDirector", "Printer"}
	for i := 0; i < 18; i++ {
		typ := kinds[i%len(kinds)]
		props := rec(values.F("cost", values.Int(int64((i*7)%18))), values.F("zone", values.Str(fmt.Sprintf("z%d", i%3))))
		if i == 17 {
			props = values.Null() // one offer no preference expression can score
		}
		for _, tr := range []importer{single, one, four} {
			if _, err := tr.Export(typ, refOf(typ, uint64(i+1)), props); err != nil {
				t.Fatal(err)
			}
		}
	}

	type row struct {
		name    string
		req     ImportRequest
		wantErr error
	}
	var rows []row
	for _, st := range []string{"Printer", "BankTeller"} { // exact type; supertype of a three-type closure
		for _, pref := range []Preference{{Kind: PrefFirst}, {Kind: PrefRandom}, {Kind: PrefMax, Expr: "cost"}, {Kind: PrefMin, Expr: "cost"}} {
			for _, max := range []int{0, 1, 3} {
				rows = append(rows, row{
					name: fmt.Sprintf("%s/pref%d/max%d", st, pref.Kind, max),
					req:  ImportRequest{ServiceType: st, Preference: pref, MaxMatches: max},
				})
			}
		}
	}
	rows = append(rows,
		row{name: "constraint", req: ImportRequest{ServiceType: "BankTeller", Constraint: "zone == 'z1' and cost > 3"}},
		row{name: "constraint matches nothing", req: ImportRequest{ServiceType: "BankTeller", Constraint: "cost > 1000"}},
		row{name: "compound constraint, arithmetic preference", req: ImportRequest{ServiceType: "BankTeller",
			Constraint: "(cost < 5 and zone == 'z1') or (cost < 2 and not (zone == 'z0'))",
			Preference: Preference{Kind: PrefMin, Expr: "cost * 2 + 1"}}},
		row{name: "bad constraint", req: ImportRequest{ServiceType: "BankTeller", Constraint: "(("}, wantErr: constraint.ErrSyntax},
		row{name: "bad preference expression", req: ImportRequest{ServiceType: "BankTeller", Preference: Preference{Kind: PrefMin, Expr: "(("}}, wantErr: constraint.ErrSyntax},
		row{name: "unknown preference", req: ImportRequest{ServiceType: "BankTeller", Preference: Preference{Kind: 99}}, wantErr: ErrBadRequest},
		row{name: "unknown type", req: ImportRequest{ServiceType: "Nope"}, wantErr: ErrTypeUnknown},
		row{name: "empty type", req: ImportRequest{}, wantErr: ErrBadRequest},
		row{name: "negative matches", req: ImportRequest{ServiceType: "BankTeller", MaxMatches: -1}, wantErr: ErrBadRequest},
		row{name: "negative hops", req: ImportRequest{ServiceType: "BankTeller", MaxHops: -1}, wantErr: ErrBadRequest},
	)

	// agree holds got to the singleton's answer want. exact: the same
	// offers in the same order. Otherwise as a set: as many offers, none
	// twice, all drawn from full — the singleton's untruncated answer, which
	// for an untruncated request is want itself.
	agree := func(t *testing.T, who string, got, want, full []Offer, exact bool) {
		t.Helper()
		g, w := offerKeys(got), offerKeys(want)
		if len(g) != len(w) {
			t.Errorf("%s: %d offers, singleton has %d\n got %v\nwant %v", who, len(g), len(w), g, w)
			return
		}
		if exact {
			for i := range g {
				if g[i] != w[i] {
					t.Errorf("%s: offer %d differs from the singleton's\n got %v\nwant %v", who, i, g, w)
					return
				}
			}
			return
		}
		pool := make(map[string]int, len(full))
		for _, k := range offerKeys(full) {
			pool[k]++
		}
		for _, k := range g {
			if pool[k] == 0 {
				t.Errorf("%s: offer %s is not (or not again) in the singleton's answer", who, k)
			}
			pool[k]--
		}
	}

	// check runs the table. moved says the sharded stores have been through
	// a ring change: a move re-installs offers bucket by bucket, so export
	// order across buckets — all PrefFirst has to go on — is then defined
	// only within one shard's untouched buckets, and the one-shard
	// front-end is held to the many-shard rule.
	check := func(t *testing.T, moved bool) {
		for _, r := range rows {
			t.Run(r.name, func(t *testing.T) {
				want, err := single.ImportEx(r.req)
				if !errors.Is(err, r.wantErr) {
					t.Fatalf("singleton: error %v, want %v", err, r.wantErr)
				}
				untruncated := r.req
				untruncated.MaxMatches = 0
				full, _ := single.ImportEx(untruncated)
				scored := r.req.Preference.Kind == PrefMax || r.req.Preference.Kind == PrefMin
				for _, sh := range []struct {
					who   string
					tr    importer
					exact bool
				}{
					{"one shard", one, scored || (!moved && r.req.Preference.Kind != PrefRandom)},
					{"four shards", four, scored},
				} {
					got, err := sh.tr.ImportEx(r.req)
					if !errors.Is(err, r.wantErr) {
						t.Errorf("%s: error %v, singleton's is %v", sh.who, err, r.wantErr)
						continue
					}
					if got.Degraded {
						t.Errorf("%s: degraded answer %+v", sh.who, got)
					}
					agree(t, sh.who, got.Offers, want.Offers, full.Offers, sh.exact)
				}
			})
		}
	}

	t.Run("as exported", func(t *testing.T) { check(t, false) })

	for name, st := range map[string]*ShardedTrader{"one": one, "four": four} {
		joined := name + "-joined"
		if err := st.AddShard(joined, New(joined, repo)); err != nil {
			t.Fatal(err)
		}
		if err := st.RemoveShard(name + "-s0"); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(one.LegStats()); n != 1 {
		t.Fatalf("one-shard front-end has %d shards after add+remove", n)
	}
	t.Run("after AddShard and RemoveShard", func(t *testing.T) { check(t, true) })
}
