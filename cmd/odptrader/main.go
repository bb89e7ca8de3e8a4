// Command odptrader runs a standalone trading-function daemon over TCP,
// optionally federated with peer traders — a multi-process trading graph.
//
// Start a trader:
//
//	odptrader -name city -listen tcp://127.0.0.1:9100
//
// It prints its own trader interface as "<interface-id> odp.Trader <endpoint>",
// once its federation links are in place.
// Start a second one federated with the first:
//
//	odptrader -name state -listen tcp://127.0.0.1:9101 \
//	          -peer '<interface-id>@tcp://127.0.0.1:9100'
//
// Exports and imports arrive through the trader's own ODP interface (see
// trader.InterfaceType); odpnode -call works against it too, since a
// trader is just another ODP object.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/bank"
	"repro/internal/core"
	"repro/internal/naming"
	"repro/internal/odp"
	"repro/internal/trader"
	"repro/internal/types"
)

type peerList []string

func (p *peerList) String() string     { return strings.Join(*p, ",") }
func (p *peerList) Set(s string) error { *p = append(*p, s); return nil }

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run serves the directory of a system named after the trader from one
// node until ctx is cancelled (SIGINT, SIGTERM), then closes the system.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("odptrader", flag.ContinueOnError)
	var peers peerList
	name := fs.String("name", "trader", "trader name (prefixes offer ids; unique per federation)")
	listen := fs.String("listen", "tcp://127.0.0.1:0", "listen endpoint")
	fs.Var(&peers, "peer", "federation link '<interface-id>@<endpoint>' (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sys, err := odp.New(odp.Config{Name: *name, Listen: naming.Endpoint(*listen)})
	if err != nil {
		return err
	}
	defer sys.Close() // error paths; a served system is closed, and checked, below
	// The type universe this trader can certify. A production deployment
	// would replicate a shared repository; here the well-known types are
	// pre-registered.
	for _, it := range []*types.Interface{
		bank.TellerType(), bank.ManagerType(), bank.LoansOfficerType(), trader.InterfaceType(),
	} {
		if err := sys.Types.RegisterInterface(it); err != nil {
			return err
		}
	}
	node, err := sys.CreateNode(*name)
	if err != nil {
		return err
	}
	ref, err := node.RegisterServant(trader.InterfaceType(), &trader.Servant{T: sys.Directory})
	if err != nil {
		return err
	}
	// A link is a binding like any other; its contract bounds every
	// federated query sent over it.
	link := core.Contract{Require: core.TransparencySet(core.Access), MaxLatency: 30 * time.Second}
	for _, peer := range peers {
		at := strings.LastIndexByte(peer, '@')
		if at < 0 {
			return fmt.Errorf("peer %q must be '<interface-id>@<endpoint>'", peer)
		}
		id, err := naming.ParseInterfaceID(peer[:at])
		if err != nil {
			return err
		}
		b, err := sys.Bind(*name, naming.InterfaceRef{
			ID:       id,
			TypeName: ref.TypeName,
			Endpoint: naming.Endpoint(peer[at+1:]),
		}, link)
		if err != nil {
			return err
		}
		sys.Directory.Link(peer, trader.NewRemote(b))
		fmt.Fprintf(os.Stderr, "odptrader: linked to %s\n", peer)
	}
	// The reference is printed once every link is in place, so whoever
	// reads it can rely on the federation it names.
	fmt.Fprintf(stdout, "%s %s %s\n", ref.ID, ref.TypeName, ref.Endpoint)

	fmt.Fprintf(os.Stderr, "odptrader: %q serving at %s with %d link(s); ctrl-c to stop\n",
		*name, node.Endpoint(), len(peers))
	<-ctx.Done()
	return sys.Close()
}
