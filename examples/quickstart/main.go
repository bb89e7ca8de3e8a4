// Command quickstart is the smallest complete ODP application: one node,
// one computational object offering one operational interface, exported
// through the trader, imported and invoked by a client — the trade-then-
// bind cycle that every larger example builds on. The client uses both
// forms of operation (Section 5.1): an interrogation, which waits for a
// termination, and an announcement, which returns nothing.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/engineering"
	"repro/internal/odp"
	"repro/internal/types"
	"repro/internal/values"
)

// greeter is the application behaviour: a computational object
// encapsulating one piece of state (its greeting) and offering it through
// an operation. It hands every wave it hears to waves.
type greeter struct {
	greeting string
	waves    chan<- string
}

func (g *greeter) Invoke(_ context.Context, op string, args []values.Value) (string, []values.Value, error) {
	name, _ := args[0].AsString()
	switch op {
	case "Greet":
		return "OK", []values.Value{values.Str(g.greeting + ", " + name + "!")}, nil
	case "Wave":
		g.waves <- name
		return "", nil, nil
	}
	return "", nil, fmt.Errorf("greeter: no operation %q", op)
}

// greeterType is the interface type, declared with the builder API: one
// interrogation and one announcement.
func greeterType() *types.Interface {
	return types.OpInterface("Greeter",
		types.Op("Greet",
			types.Params(types.P("name", values.TString())),
			types.Term("OK", types.P("message", values.TString())),
		),
		types.Announce("Wave", types.P("name", values.TString())),
	)
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run makes the trade-then-bind cycle and prints what the client sees.
func run(w io.Writer) error {
	// 1. An ODP system: simulated network + infrastructure objects
	//    (type repository, trader, relocator).
	system := odp.NewSystem(42)
	defer system.Close()

	// 2. An engineering node (Figure 5: nucleus + capsules + clusters).
	node, err := system.CreateNode("alpha")
	if err != nil {
		return err
	}
	waves := make(chan string, 1)
	node.Behaviors().Register("greeter", func(arg values.Value) (engineering.Behavior, error) {
		greeting, _ := arg.AsString()
		return &greeter{greeting: greeting, waves: waves}, nil
	})

	// 3. Deploy a computational object template: behaviour + interface +
	//    environment contract. Deployment registers the type, publishes
	//    the location and exports a trader offer.
	tmpl := core.ObjectTemplate{
		Name:     "hello-service",
		Behavior: "greeter",
		Arg:      values.Str("Hello"),
		Interfaces: []core.InterfaceDecl{{
			Type: greeterType(),
			Contract: core.Contract{
				Require: core.TransparencySet(core.Access | core.Location | core.Failure),
			},
		}},
	}
	if _, err := system.Deploy(node, tmpl, values.Record(
		values.F("lang", values.Str("en")),
	)); err != nil {
		return err
	}

	// 4. The client side: import by service type + constraint, bind under
	//    a contract, invoke.
	binding, err := system.ImportAndBind("client", "Greeter", "lang == 'en'",
		core.Contract{Require: core.TransparencySet(core.Access | core.Location | core.Failure)})
	if err != nil {
		return err
	}
	defer binding.Close()

	term, results, err := binding.Invoke(context.Background(), "Greet",
		[]values.Value{values.Str("world")})
	if err != nil {
		return err
	}
	msg, _ := results[0].AsString()
	fmt.Fprintf(w, "termination: %s\nmessage:     %s\n", term, msg)

	// 5. An announcement: Announce returns once the request is sent, with
	//    no termination; the servant's effect reaches main over waves.
	if err := binding.Announce(context.Background(), "Wave",
		[]values.Value{values.Str("world")}); err != nil {
		return err
	}
	select {
	case name := <-waves:
		fmt.Fprintf(w, "announced:   Wave from %s\n", name)
		return nil
	case <-time.After(5 * time.Second):
		return errors.New("the announcement never reached the greeter")
	}
}
