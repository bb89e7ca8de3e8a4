// Command bankdemo runs the tutorial's bank on a two-node ODP system and
// exercises the engineering machinery under load: customers keep
// depositing and withdrawing while the branch's cluster migrates between
// nodes. The clients never see the move — their binders re-resolve
// through the relocator and replay (relocation transparency, Section 9.2).
// It exits non-zero when a customer saw a failure or a balance is not
// 10,000 plus the customer's accepted deposits minus accepted withdrawals.
//
// Usage:
//
//	bankdemo [-customers N] [-ops N] [-migrations N]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/bank"
	"repro/internal/core"
	"repro/internal/engineering"
	"repro/internal/odp"
	"repro/internal/transactions"
	"repro/internal/values"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole demo: deploy the branch, let the customers work while
// the branch migrates, and report what they saw.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bankdemo", flag.ContinueOnError)
	var (
		customers  = fs.Int("customers", 4, "concurrent customers")
		ops        = fs.Int("ops", 200, "operations per customer")
		migrations = fs.Int("migrations", 3, "live migrations during the run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	system := odp.NewSystem(2026)
	defer system.Close()
	coord := transactions.NewCoordinator()
	store := transactions.NewStore("branch-cbd", nil)
	nodes := make([]*engineering.Node, 2)
	capsules := make([]*engineering.Capsule, 2)
	for i, name := range []string{"alpha", "beta"} {
		n, err := system.CreateNode(name)
		if err != nil {
			return err
		}
		bank.RegisterBehavior(n.Behaviors(), coord, store)
		if capsules[i], err = n.CreateCapsule(); err != nil {
			return err
		}
		nodes[i] = n
	}
	dep, err := system.Deploy(nodes[0], bank.Template("branch-cbd"), values.Record(
		values.F("city", values.Str("brisbane")),
	))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "deployed branch on %s with interfaces:\n", nodes[0].ID())
	for name, ref := range dep.Refs {
		fmt.Fprintf(stdout, "  %-14s %s\n", name, ref)
	}

	contract := core.Contract{Require: core.TransparencySet(
		core.Access | core.Location | core.Relocation | core.Failure | core.Transaction)}
	manager, err := system.ImportAndBind("branch-office", "BankManager", "", contract)
	if err != nil {
		return err
	}
	defer manager.Close()

	// customer opens an account through the manager with 10,000 in it,
	// deposits and withdraws through a teller binding of its own, and
	// returns its account and the balance the branch then reports — which
	// must be what the branch accepted. It stops at its first failure.
	var okOps, denied, failures atomic.Int64
	customer := func(who string) (string, int64, error) {
		term, res, err := manager.Invoke(ctx, "CreateAccount", []values.Value{values.Str(who)})
		if err != nil || term != "OK" {
			return "", 0, fmt.Errorf("CreateAccount: %q %v", term, err)
		}
		acct, _ := res[0].AsString()
		teller, err := system.ImportAndBind(who, "BankTeller", "city == 'brisbane'", contract)
		if err != nil {
			return acct, 0, err
		}
		defer teller.Close()
		call := func(op string, amount int64) (string, []values.Value, error) {
			return teller.Invoke(ctx, op, []values.Value{values.Str(who), values.Str(acct), values.Int(amount)})
		}
		want := int64(10_000)
		if term, _, err := call("Deposit", want); err != nil || term != "OK" {
			return acct, 0, fmt.Errorf("opening deposit: %q %v", term, err)
		}
		for n := 0; n < *ops; n++ {
			op, amount := "Deposit", int64(2)
			if n%2 == 1 {
				op, amount = "Withdraw", 1
			}
			switch term, _, err := call(op, amount); {
			case err != nil:
				return acct, 0, fmt.Errorf("%s: %w", op, err)
			case term == "OK" && op == "Deposit":
				okOps.Add(1)
				want += amount
			case term == "OK":
				okOps.Add(1)
				want -= amount
			case term == "NotToday":
				denied.Add(1)
			default:
				return acct, 0, fmt.Errorf("%s: unexpected termination %s", op, term)
			}
		}
		term, res, err = teller.Invoke(ctx, "Balance", []values.Value{values.Str(who), values.Str(acct)})
		if err != nil || term != "OK" {
			return acct, 0, fmt.Errorf("Balance: %q %v", term, err)
		}
		if got, _ := res[0].AsInt(); got != want {
			return acct, got, fmt.Errorf("balance %d, want %d", got, want)
		}
		return acct, want, nil
	}

	// Customers hammer the branch while migrations happen underneath.
	lines := make([]string, *customers)
	var wg sync.WaitGroup
	for i := range lines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			who := fmt.Sprintf("customer-%d", i)
			acct, balance, err := customer(who)
			if err != nil {
				failures.Add(1)
				log.Printf("%s: %v", who, err)
			}
			lines[i] = fmt.Sprintf("  %s %s balance=%d\n", who, acct, balance)
		}(i)
	}

	// Live migrations, ping-ponging the cluster between the nodes.
	cluster := dep.Cluster
	var migErr error
	for m := 1; m <= *migrations && migErr == nil; m++ {
		if cluster, migErr = cluster.MigrateTo(capsules[m%2]); migErr == nil {
			fmt.Fprintf(stdout, "migrated branch -> %s (epoch advances; clients unaware)\n", cluster.ID().Capsule.Node)
		}
	}
	wg.Wait()
	if migErr != nil {
		return migErr
	}

	fmt.Fprintf(stdout, "\nresults: %d successful operations, %d denied by the daily limit, %d client-visible failures\n",
		okOps.Load(), denied.Load(), failures.Load())
	for _, l := range lines {
		fmt.Fprint(stdout, l)
	}
	st := system.Relocator.Stats()
	fmt.Fprintf(stdout, "relocator: %d lookups, %d misses, %d relocations\n", st.Lookups, st.Misses, st.Relocates)
	if n := failures.Load(); n > 0 {
		return fmt.Errorf("%d of %d customers saw a failure or a wrong balance", n, *customers)
	}
	return nil
}
