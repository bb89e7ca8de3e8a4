package odp

import (
	"context"
	"fmt"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/mgmt"
	"repro/internal/naming"
	"repro/internal/stream"
	"repro/internal/types"
)

// This file is the facade over the streaming data plane (tutorial §5.1.1:
// stream interfaces stand beside operational ones in the computational
// model). A stream service type is written from the producing client's
// viewpoint — flows the client streams into the service are declared
// Producer, exactly as BindConfig.Type is the binding owner's view
// everywhere else — and Subscribe/OpenStream wire the two ends together
// with the causality check between them.

// ErrNotStream reports a streaming call against a non-stream interface.
var ErrNotStream = fmt.Errorf("odp: interface is not a stream interface")

// Subscribe installs a consumer end for a stream interface type on a
// node: the consumer is registered as a servant (with the node's location
// registry, so clients relocate to it like any interface), the type goes
// into the repository for clients to bind with, and inbound streams are
// taken from Consumer.Accept. The returned reference is what producers
// OpenStream against.
func (s *System) Subscribe(nodeName string, typ *types.Interface, cfg stream.ConsumerConfig) (*stream.Consumer, naming.InterfaceRef, error) {
	if typ == nil || typ.Kind != types.Stream {
		return nil, naming.InterfaceRef{}, fmt.Errorf("%w: %v", ErrNotStream, typ)
	}
	if err := typ.Validate(); err != nil {
		return nil, naming.InterfaceRef{}, err
	}
	node, err := s.Node(nodeName)
	if err != nil {
		return nil, naming.InterfaceRef{}, err
	}
	if err := s.Types.RegisterInterface(typ); err != nil {
		return nil, naming.InterfaceRef{}, err
	}
	name := nodeName + "." + typ.Name + ".consumer"
	if cfg.Instruments == nil {
		cfg.Instruments = s.mgmt.Stream(name)
	}
	cons := stream.NewConsumer(cfg)
	ref, err := node.RegisterServant(typ, cons)
	if err != nil {
		return nil, naming.InterfaceRef{}, err
	}
	mgmt.Read(s.mgmt, "stream."+name+".", cons.Stats)
	return cons, ref, nil
}

// OpenStream opens a producing stream on the named flow of a subscribed
// stream interface from a client host: the binding is configured through
// the usual transparency environment (shared sessions, relocation-aware
// locator), causality is checked against the repository type — the flow
// must be a Producer flow whose element type the consuming end accepts —
// and the returned producer pushes elements under the consumer's credit
// window. Close the producer first, then the binding. Management shows
// the producer under stream.<clientHost>.<flow>.producer.*; a later
// producer on the same host and flow takes those names over.
func (s *System) OpenStream(ctx context.Context, clientHost string, ref naming.InterfaceRef, flow string, contract core.Contract, cfg stream.ProducerConfig) (*stream.Producer, *channel.Binding, error) {
	if it, err := s.Types.LookupInterface(ref.TypeName); err == nil {
		// The client's view is the registered type; the consuming end's is
		// its causal mirror. FlowCausality rejects absent flows, wrong
		// directions and element-type mismatches before any wire traffic.
		if err := types.FlowCausality(it, types.Complement(it), flow); err != nil {
			return nil, nil, err
		}
	}
	b, err := s.Bind(clientHost, ref, contract)
	if err != nil {
		return nil, nil, err
	}
	name := clientHost + "." + flow + ".producer"
	if cfg.Instruments == nil {
		cfg.Instruments = s.mgmt.Stream(name)
	}
	p, err := stream.Open(ctx, b, flow, cfg)
	if err != nil {
		b.Close()
		return nil, nil, err
	}
	mgmt.Read(s.mgmt, "stream."+name+".", p.Stats)
	return p, b, nil
}
