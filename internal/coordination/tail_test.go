package coordination_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/bank"
	"repro/internal/channel"
	"repro/internal/coordination"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/transactions"
	"repro/internal/types"
	"repro/internal/values"
)

// TestFanOutLegsOwnTheirResults: a ReplicaGroup of three local branches
// served behind a channel server gets its arguments decoded, so they come
// with spare capacity that each branch appends its results into. The
// update's legs run at once on one args slice; each must append into a
// slice of its own. Eight depositors, each on an account of its own, must
// get their own running balance from every leg (a divergence fails the
// call). Under the race detector two legs sharing a tail is a reported
// race even where the replicas write equal values.
func TestFanOutLegsOwnTheirResults(t *testing.T) {
	g := coordination.NewReplicaGroup()
	for i := 0; i < 3; i++ {
		branch := bank.NewBranchHandler(transactions.NewCoordinator(), transactions.NewStore(fmt.Sprintf("b%d", i), nil))
		if err := g.Add(fmt.Sprintf("branch%d", i), coordination.Member(branch)); err != nil {
			t.Fatal(err)
		}
	}
	net := netsim.New(1)
	l, err := net.Listen("sim://bank")
	if err != nil {
		t.Fatal(err)
	}
	srv := channel.NewServer(l, channel.ServerConfig{})
	bind := func(seq uint32, typ *types.Interface) *channel.Binding {
		id := naming.InterfaceID{Seq: seq, Nonce: 0x7a11}
		if err := srv.Register(id, typ, g); err != nil {
			t.Fatal(err)
		}
		b, err := channel.Bind(naming.InterfaceRef{ID: id, Endpoint: "sim://bank"}, channel.BindConfig{Transport: net, Type: typ})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		return b
	}
	manager, teller := bind(1, bank.ManagerType()), bind(2, bank.TellerType())
	srv.Start()
	t.Cleanup(func() { srv.Close() })

	const depositors, rounds = 8, 40
	ctx := context.Background()
	accounts := make([]values.Value, depositors)
	for i := range accounts {
		term, res, err := manager.Invoke(ctx, "CreateAccount", []values.Value{values.Str(fmt.Sprintf("c%d", i))})
		if err != nil || term != "OK" {
			t.Fatalf("CreateAccount %d = %q, %v", i, term, err)
		}
		if want := values.Str(fmt.Sprintf("acct-%d", i+1)); !res[0].Equal(want) {
			t.Fatalf("CreateAccount %d = %v, want %v", i, res[0], want)
		}
		accounts[i] = res[0]
	}
	var wg sync.WaitGroup
	for i := range accounts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			customer, amount := values.Str(fmt.Sprintf("c%d", i)), int64(i+1)
			for r := 1; r <= rounds; r++ {
				term, res, err := teller.Invoke(ctx, "Deposit", []values.Value{customer, accounts[i], values.Int(amount)})
				if err != nil || term != "OK" {
					t.Errorf("depositor %d round %d: %q, %v", i, r, term, err)
					return
				}
				if got, _ := res[0].AsInt(); got != int64(r)*amount {
					t.Errorf("depositor %d round %d: balance %d, want %d", i, r, got, int64(r)*amount)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if st := g.Stats(); st.Divergences != 0 || st.Failovers != 0 {
		t.Errorf("group stats = %+v, want no divergence and no failover", st)
	}
}
