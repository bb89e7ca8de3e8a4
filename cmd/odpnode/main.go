// Command odpnode is the odp facade as a process: it serves a node of a
// one-node system over real TCP, or invokes an interface on one — the
// multi-process path of the stack (the same facade on the simulator).
//
// Serve a counter object:
//
//	odpnode -serve -listen tcp://127.0.0.1:9000 -behavior counter
//
// It prints one line per interface:
//
//	<interface-id> <type> <endpoint>
//
// Unless -mgmt=false, the last line is a Management interface: point
// cmd/odpstat at it to dump the node's metrics and traces.
//
// Invoke from another process:
//
//	odpnode -call '<interface-id>' -endpoint tcp://127.0.0.1:9000 -op Inc -args 5
//
// Arguments are comma-separated; integers, true/false and quoted text are
// recognised, everything else travels as a string.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/bank"
	"repro/internal/core"
	"repro/internal/engineering"
	"repro/internal/mgmt"
	"repro/internal/naming"
	"repro/internal/odp"
	"repro/internal/transactions"
	"repro/internal/types"
	"repro/internal/values"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole command: one system built from the flags, a node
// served on it or one call made through it, and the system closed on
// every way out. A cancelled ctx (SIGINT, SIGTERM) ends serve mode with a
// nil error.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("odpnode", flag.ContinueOnError)
	var (
		serve    = fs.Bool("serve", false, "host a node")
		listen   = fs.String("listen", "tcp://127.0.0.1:0", "listen endpoint (serve mode)")
		behavior = fs.String("behavior", "counter", "object to host: counter | greeter | bank")
		nodeName = fs.String("node", "node1", "node name (serve mode)")
		call     = fs.String("call", "", "interface id to invoke (call mode)")
		endpoint = fs.String("endpoint", "", "endpoint of the target interface (call mode)")
		op       = fs.String("op", "", "operation name (call mode)")
		argsCSV  = fs.String("args", "", "comma-separated operation arguments (call mode)")
		manage   = fs.Bool("mgmt", true, "serve the Management interface beside the application (serve mode)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sys, err := odp.New(odp.Config{Listen: naming.Endpoint(*listen), Management: *serve && *manage})
	if err != nil {
		return err
	}
	defer sys.Close() // error paths; runServe closes, and checks, a served system
	switch {
	case *serve:
		return runServe(ctx, sys, stdout, *nodeName, *behavior)
	case *call != "":
		return runCall(ctx, sys, stdout, *call, *endpoint, *op, *argsCSV)
	}
	fs.Usage()
	return errors.New("need -serve or -call")
}

type counter struct{ n int64 }

func (c *counter) Invoke(_ context.Context, op string, args []values.Value) (string, []values.Value, error) {
	if op == "Inc" {
		d, _ := args[0].AsInt()
		c.n += d
	}
	return "OK", []values.Value{values.Int(c.n)}, nil
}

func counterType() *types.Interface {
	return types.OpInterface("Counter",
		types.Op("Inc", types.Params(types.P("d", values.TInt())),
			types.Term("OK", types.P("n", values.TInt()))),
		types.Op("Get", nil, types.Term("OK", types.P("n", values.TInt()))),
	)
}

type greeter struct{}

func (greeter) Invoke(_ context.Context, op string, args []values.Value) (string, []values.Value, error) {
	name := "world"
	if len(args) == 1 {
		if s, ok := args[0].AsString(); ok {
			name = s
		}
	}
	return "OK", []values.Value{values.Str("hello, " + name)}, nil
}

func greeterType() *types.Interface {
	return types.OpInterface("Greeter",
		types.Op("Greet", types.Params(types.P("name", values.TString())),
			types.Term("OK", types.P("message", values.TString()))),
	)
}

func runServe(ctx context.Context, sys *odp.System, stdout io.Writer, nodeName, behavior string) error {
	node, err := sys.CreateNode(nodeName)
	if err != nil {
		return err
	}
	// One object, its interfaces printed in template order.
	tmpl := core.ObjectTemplate{Name: behavior, Behavior: behavior, Arg: values.Null()}
	switch behavior {
	case "counter":
		node.Behaviors().Register(behavior, func(values.Value) (engineering.Behavior, error) {
			return &counter{}, nil
		})
		tmpl.Interfaces = []core.InterfaceDecl{{Type: counterType()}}
	case "greeter":
		node.Behaviors().Register(behavior, func(values.Value) (engineering.Behavior, error) {
			return greeter{}, nil
		})
		tmpl.Interfaces = []core.InterfaceDecl{{Type: greeterType()}}
	case "bank":
		coord := transactions.NewCoordinator()
		coord.Instrument(sys.Mgmt().Tx(nodeName))
		mgmt.Read(sys.Mgmt(), "tx."+nodeName+".", func() struct{ Commits, Aborts uint64 } {
			commits, aborts := coord.Stats()
			return struct{ Commits, Aborts uint64 }{commits, aborts}
		})
		bank.RegisterBehavior(node.Behaviors(), coord, transactions.NewStore("branch", nil))
		tmpl = bank.Template("branch")
	default:
		return fmt.Errorf("unknown behavior %q (counter | greeter | bank)", behavior)
	}
	dep, err := sys.Deploy(node, tmpl, values.Null())
	if err != nil {
		return err
	}
	for _, decl := range tmpl.Interfaces {
		ref := dep.Refs[decl.Type.Name]
		fmt.Fprintf(stdout, "%s %s %s\n", ref.ID, ref.TypeName, ref.Endpoint)
	}
	// With -mgmt the node registered a Management interface when it was
	// created; it goes last.
	for _, ref := range sys.Relocator.Entries() {
		if ref.TypeName == mgmt.InterfaceTypeName {
			fmt.Fprintf(stdout, "%s %s %s\n", ref.ID, ref.TypeName, ref.Endpoint)
		}
	}
	fmt.Fprintf(os.Stderr, "odpnode: serving %s at %s; ctrl-c to stop\n", behavior, node.Endpoint())
	<-ctx.Done()
	return sys.Close()
}

func runCall(ctx context.Context, sys *odp.System, stdout io.Writer, ifaceID, endpoint, op, argsCSV string) error {
	if endpoint == "" || op == "" {
		return errors.New("call mode needs -endpoint and -op")
	}
	id, err := naming.ParseInterfaceID(ifaceID)
	if err != nil {
		return err
	}
	// Access transparency alone: the canonical transfer syntax, and the
	// endpoint given on the command line taken at its word.
	b, err := sys.Bind("odpnode", naming.InterfaceRef{ID: id, Endpoint: naming.Endpoint(endpoint)},
		core.Contract{Require: core.TransparencySet(core.Access)})
	if err != nil {
		return err
	}
	defer b.Close()
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	term, results, err := b.Invoke(ctx, op, parseArgs(argsCSV))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "termination: %s\n", term)
	for i, r := range results {
		fmt.Fprintf(stdout, "result[%d]:   %s\n", i, r)
	}
	return nil
}

func parseArgs(csv string) []values.Value {
	if strings.TrimSpace(csv) == "" {
		return nil
	}
	parts := strings.Split(csv, ",")
	out := make([]values.Value, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		switch {
		case p == "true":
			out = append(out, values.Bool(true))
		case p == "false":
			out = append(out, values.Bool(false))
		default:
			if n, err := strconv.ParseInt(p, 10, 64); err == nil {
				out = append(out, values.Int(n))
				continue
			}
			out = append(out, values.Str(strings.Trim(p, `'"`)))
		}
	}
	return out
}
