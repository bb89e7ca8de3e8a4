// Command federation demonstrates trading across administrative domains:
// three traders linked in a chain, with type-checked substitutability —
// an import for BankTeller service two hops away finds a BankManager
// offer, because a manager can substitute for a teller (Figure 3).
package main

import (
	"fmt"
	"log"

	"repro/internal/bank"
	"repro/internal/naming"
	"repro/internal/trader"
	"repro/internal/typerepo"
	"repro/internal/values"
)

func main() {
	// One shared type universe (in practice each domain would replicate
	// the repository; the registry is just data).
	repo := typerepo.New()
	must(repo.RegisterInterface(bank.TellerType()))
	must(repo.RegisterInterface(bank.ManagerType()))
	must(repo.RegisterInterface(bank.LoansOfficerType()))

	// Three trading domains: city, state, national, each a front-end over
	// one store named after it (the name prefixes the offer ids it mints).
	domain := func(name string) *trader.ShardedTrader {
		fe := trader.NewSharded(name, repo, 0)
		must(fe.AddShard(name, trader.New(name, repo)))
		return fe
	}
	city, state, national := domain("city"), domain("state"), domain("national")
	city.Link("state", state)
	state.Link("national", national)

	// Offers appear in different domains.
	ref := func(typeName string, nonce uint64, host string) naming.InterfaceRef {
		return naming.InterfaceRef{
			ID:       naming.InterfaceID{Nonce: nonce},
			TypeName: typeName,
			Endpoint: naming.Endpoint("sim://" + host),
		}
	}
	if _, err := state.Export("BankTeller", ref("BankTeller", 1, "state-branch"),
		values.Record(values.F("queue", values.Int(7)))); err != nil {
		log.Fatal(err)
	}
	if _, err := national.Export("BankManager", ref("BankManager", 2, "hq"),
		values.Record(values.F("queue", values.Int(1)))); err != nil {
		log.Fatal(err)
	}

	show := func(label string, hops int) {
		offers, err := city.Import(trader.ImportRequest{
			ServiceType: "BankTeller",
			Preference:  trader.Preference{Kind: trader.PrefMin, Expr: "queue"},
			MaxHops:     hops,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (hops=%d): %d offer(s)\n", label, hops, len(offers))
		for _, o := range offers {
			q, _ := o.Properties.FieldByName("queue")
			fmt.Printf("  %-12s type=%-12s queue=%s at %s\n", o.ID, o.ServiceType, q, o.Ref.Endpoint)
		}
	}
	show("local only", 0)
	show("one hop", 1)
	show("two hops", 2)

	st := city.ShardStats()
	fmt.Printf("city trader stats: imports=%d federated=%d matched=%d\n",
		st.Imports, st.Federated, st.Matched)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
