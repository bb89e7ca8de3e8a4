package main

import (
	"bufio"
	"context"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/naming"
	"repro/internal/odp"
	"repro/internal/trader"
	"repro/internal/values"
)

// daemon is one run of the binary serving until its context is cancelled.
type daemon struct {
	ref  naming.InterfaceRef // the trader interface it printed
	done chan error
}

// serve starts run with args and reads the trader interface it prints.
func serve(t *testing.T, ctx context.Context, args ...string) daemon {
	t.Helper()
	pr, pw := io.Pipe()
	d := daemon{done: make(chan error, 1)}
	go func() {
		err := run(ctx, args, pw)
		pw.CloseWithError(err) // a run that ends before printing must not hang the scan
		d.done <- err
	}()
	sc := bufio.NewScanner(pr)
	if !sc.Scan() {
		t.Fatalf("run(%v) printed no interface: %v", args, sc.Err())
	}
	go io.Copy(io.Discard, pr) // nothing more is printed, but never block the writer
	f := strings.Fields(sc.Text())
	if len(f) != 3 || f[1] != trader.InterfaceType().Name {
		t.Fatalf("run(%v) printed %q, want '<interface-id> odp.Trader <endpoint>'", args, sc.Text())
	}
	id, err := naming.ParseInterfaceID(f[0])
	if err != nil {
		t.Fatal(err)
	}
	d.ref = naming.InterfaceRef{ID: id, TypeName: f[1], Endpoint: naming.Endpoint(f[2])}
	return d
}

// TestFederatedDaemons runs two daemons over loopback TCP, B linked to A
// with -peer: an offer exported at A through its trader interface is found
// by an import at B one hop out, and both runs return on cancel.
func TestFederatedDaemons(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a := serve(t, ctx, "-name", "a", "-listen", "tcp://127.0.0.1:0")
	b := serve(t, ctx, "-name", "b", "-listen", "tcp://127.0.0.1:0",
		"-peer", a.ref.ID.String()+"@"+string(a.ref.Endpoint))

	client, err := odp.New(odp.Config{Name: "client", Listen: "tcp://127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	proxy := func(d daemon) *trader.Remote {
		bd, err := client.Bind("client", d.ref, core.Contract{Require: core.TransparencySet(core.Access)})
		if err != nil {
			t.Fatal(err)
		}
		r := trader.NewRemote(bd)
		t.Cleanup(func() { r.Close() })
		return r
	}
	teller := naming.InterfaceRef{ID: naming.InterfaceID{Nonce: 7}, TypeName: "BankTeller", Endpoint: "tcp://127.0.0.1:1"}
	id, err := proxy(a).Export("BankTeller", teller, values.Record(values.F("queue", values.Int(3))))
	if err != nil {
		t.Fatal(err)
	}
	atB := proxy(b)
	if offers, err := atB.Import(trader.ImportRequest{ServiceType: "BankTeller"}); err != nil || len(offers) != 0 {
		t.Fatalf("import at B, no hops = %v, %v; want nothing", offers, err)
	}
	offers, err := atB.Import(trader.ImportRequest{ServiceType: "BankTeller", MaxHops: 1})
	if err != nil || len(offers) != 1 || offers[0].ID != id || offers[0].Ref != teller {
		t.Fatalf("import at B, one hop = %+v, %v; want A's offer %s", offers, err, id)
	}

	cancel()
	for name, d := range map[string]daemon{"a": a, "b": b} {
		select {
		case err := <-d.done:
			if err != nil {
				t.Errorf("run %s after cancel = %v, want nil", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("run %s did not return within 5s of cancellation", name)
		}
	}
}
