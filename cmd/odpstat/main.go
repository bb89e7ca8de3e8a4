// Command odpstat renders the management view of an ODP node: metrics and
// channel-stage traces, fetched over the node's own Management interface
// (the subsystem is reached through the same channel machinery it
// observes).
//
// Against a served node (take the Management line from odpnode's output):
//
//	odpstat -id '<interface-id>' -endpoint tcp://127.0.0.1:9000
//	odpstat -id '<interface-id>' -endpoint tcp://127.0.0.1:9000 -op Traces
//	odpstat -id '<interface-id>' -endpoint tcp://127.0.0.1:9000 -op Trace -trace <hex-id>
//	odpstat -id '<interface-id>' -endpoint tcp://127.0.0.1:9000 -op Health
//
// -op Health renders the node's failure-detector instruments as a
// liveness table (state and suspicion per watched endpoint, probe and
// miss counters, RTT summary) followed by the circuit-breaker state per
// failure-policy bundle. The rendering is client-side over the plain
// Metrics dump, so any node with Config.Health and Management serves it.
//
// Standalone demo — build a two-replica transactional bank in-process,
// run one traced deposit and print its span tree:
//
//	odpstat -demo
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/naming"
	"repro/internal/odp"
	"repro/internal/values"
)

func main() {
	var (
		id       = flag.String("id", "", "interface id of the node's Management interface")
		endpoint = flag.String("endpoint", "", "endpoint of the node")
		op       = flag.String("op", "Dump", "management operation: Dump | Metrics | Traces | Trace | Health")
		trace    = flag.String("trace", "", "trace id (hex) for -op Trace")
		demo     = flag.Bool("demo", false, "run the in-process traced-transfer demo and exit")
	)
	flag.Parse()

	if *demo {
		runDemo()
		return
	}
	if *id == "" || *endpoint == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := runFetch(*id, *endpoint, *op, *trace); err != nil {
		log.Fatal(err)
	}
}

// runFetch makes one Management call through a plain system of its own —
// the same Bind every client of the facade uses, the transport chosen by
// the endpoint's scheme — and renders the reply.
func runFetch(ifaceID, endpoint, op, trace string) error {
	id, err := naming.ParseInterfaceID(ifaceID)
	if err != nil {
		return err
	}
	sys := odp.NewSystem(0)
	defer sys.Close()
	b, err := sys.Bind("odpstat", naming.InterfaceRef{ID: id, Endpoint: naming.Endpoint(endpoint)},
		core.Contract{Require: core.TransparencySet(core.Access)})
	if err != nil {
		return err
	}
	defer b.Close()

	// Health is a client-side rendering of the node's metric dump: the
	// node serves raw instruments, odpstat shapes the liveness table.
	renderer := func(s string) string { return s }
	if op == "Health" {
		op, renderer = "Metrics", renderHealth
	}

	var args []values.Value
	if op == "Trace" {
		if trace == "" {
			return errors.New("-op Trace needs -trace <hex-id>")
		}
		n, err := strconv.ParseUint(trace, 16, 64)
		if err != nil {
			return fmt.Errorf("bad trace id %q: %v", trace, err)
		}
		args = []values.Value{values.Uint(n)}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	term, results, err := b.Invoke(ctx, op, args)
	if err != nil {
		return err
	}
	if term != "OK" {
		detail := ""
		if len(results) > 0 {
			if s, ok := results[0].AsString(); ok {
				detail = ": " + s
			}
		}
		return fmt.Errorf("%s%s", term, detail)
	}
	for _, r := range results {
		if s, ok := r.AsString(); ok {
			fmt.Print(renderer(s))
		}
	}
	return nil
}

func runDemo() {
	spans, text, err := experiments.E9TracedTransfer()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one replicated, transactional bank deposit — %d spans:\n\n", len(spans))
	fmt.Print(text)
}
