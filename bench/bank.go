package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bank"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/engineering"
	"repro/internal/mgmt"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/odp"
	"repro/internal/transactions"
	"repro/internal/types"
	"repro/internal/values"
)

// The four bank workloads drive the tutorial's running example — the
// branch of Fig. 2 behind its BankTeller interface — with one mix: 70%
// Balance, 30% Deposit, each caller on an account of its own, so no two
// transactions ever conflict and the oracle can follow every balance.

const (
	depositShare = 0.30
	// maxCaptured bounds the interrogations recorded as spans.
	maxCaptured = 512
)

// bankShape says where the branch runs and how many callers reach it.
// Every caller has a binding of its own, all on one session: the server's
// replay guard (on in odpnode) rejects a correlation id lower than one it
// has seen, and concurrent Invokes on one binding can reach the wire out
// of correlation order, so a binding shared by callers loses about one
// call in fifty to ERR_REPLAY. See README.md, "Findings".
type bankShape struct {
	mode    string // "inproc", "xproc" or "facade"
	callers int
}

type bankCaller struct {
	b          *channel.Binding
	cust, acct string
	rng        *rand.Rand
	opening    int64
	deposited  int64 // sum of acknowledged deposits
	balArgs    []values.Value
	depArgs    []values.Value
	slot       *callerSlot
	seq        int
}

type bankInstance struct {
	shape   bankShape
	tr      *tracer
	callers []*bankCaller
	// closers run in reverse order at close.
	closers []func()

	coord  *transactions.Coordinator // in-process rows only
	server *channel.Server           // in-process TCP rows only
	sys    *odp.System               // facade row only
	ref    naming.InterfaceRef       // the BankTeller interface
	child  *childProc
	mgmtB  *channel.Binding // Management interface of the child, traced run only
	abort0 uint64
}

func (bi *bankInstance) goroutines() int  { return len(bi.callers) }
func (bi *bankInstance) sampleEvery() int { return 1 }

func (bi *bankInstance) pids() []int {
	if bi.child != nil {
		return []int{bi.child.cmd.Process.Pid}
	}
	return nil
}

func (bi *bankInstance) close() {
	for i := len(bi.closers) - 1; i >= 0; i-- {
		bi.closers[i]()
	}
	bi.closers = nil
}

// setupBank builds the branch in the given shape, creates one account per
// caller through the BankManager interface and makes the opening deposit,
// which is the run's first successful operation.
func setupBank(shape bankShape, cfg runConfig) (inst instance, err error) {
	bi := &bankInstance{shape: shape, tr: cfg.tr}
	defer func() {
		if err != nil {
			bi.close()
		}
	}()
	rng := rand.New(rand.NewSource(cfg.seed))

	var teller, manager []*channel.Binding // teller: one per caller
	switch shape.mode {
	case "inproc", "xproc":
		var transport netsim.Transport = netsim.NewTCP()
		if cfg.tr != nil {
			transport = tracedTransport{transport, cfg.tr}
		}
		var refs map[string]naming.InterfaceRef
		if shape.mode == "inproc" {
			refs, err = bi.startNode(transport)
		} else {
			refs, err = bi.startChild(cfg)
		}
		if err != nil {
			return nil, err
		}
		bi.ref = refs["BankTeller"]
		sessions := channel.NewSessionManager(transport)
		bi.closers = append(bi.closers, func() { sessions.Close() })
		bc := channel.BindConfig{Sessions: sessions}
		if cfg.tr != nil {
			bc.Stages = []channel.Stage{tracedStage{cfg.tr}}
		}
		for i := 0; i < shape.callers; i++ {
			b, err := channel.Bind(bi.ref, bc)
			if err != nil {
				return nil, err
			}
			bi.closers = append(bi.closers, func() { b.Close() })
			teller = append(teller, b)
		}
		mb, err := channel.Bind(refs["BankManager"], channel.BindConfig{Sessions: sessions})
		if err != nil {
			return nil, err
		}
		bi.closers = append(bi.closers, func() { mb.Close() })
		manager = append(manager, mb)
		if ref, ok := refs[mgmt.InterfaceTypeName]; ok {
			bi.mgmtB, err = channel.Bind(ref, channel.BindConfig{Sessions: sessions})
			if err != nil {
				return nil, err
			}
			bi.closers = append(bi.closers, func() { bi.mgmtB.Close() })
		}
	case "facade":
		teller, manager, err = bi.startFacade(cfg.seed, shape.callers)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown bank shape %q", shape.mode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < shape.callers; i++ {
		c := &bankCaller{
			b:       teller[i],
			cust:    fmt.Sprintf("cust-%d-%08x", i, rng.Uint32()),
			rng:     rand.New(rand.NewSource(rng.Int63())),
			opening: 1 + rng.Int63n(1000),
		}
		term, res, err := manager[0].Invoke(ctx, "CreateAccount", []values.Value{values.Str(c.cust)})
		if err != nil || term != "OK" || len(res) != 1 {
			return nil, fmt.Errorf("CreateAccount for %s: %s %v", c.cust, term, err)
		}
		c.acct, _ = res[0].AsString()
		c.balArgs = []values.Value{values.Str(c.cust), values.Str(c.acct)}
		c.depArgs = []values.Value{values.Str(c.cust), values.Str(c.acct), values.Int(c.opening)}
		term, res, err = c.b.Invoke(ctx, "Deposit", c.depArgs)
		if err != nil || term != "OK" {
			return nil, fmt.Errorf("opening deposit for %s: %s %v %v", c.cust, term, res, err)
		}
		if cfg.tr != nil {
			c.slot = &callerSlot{}
			cfg.tr.byName[c.cust] = c.slot
		}
		bi.callers = append(bi.callers, c)
	}
	return bi, nil
}

// startNode hosts the branch on an engineering node over loopback TCP,
// wired as cmd/odpnode -behavior bank -mgmt=false wires it.
func (bi *bankInstance) startNode(transport netsim.Transport) (map[string]naming.InterfaceRef, error) {
	node, err := engineering.NewNode(engineering.NodeConfig{
		ID:        "node1",
		Endpoint:  "tcp://127.0.0.1:0",
		Transport: transport,
		Server:    channel.ServerConfig{ReplayGuard: true},
	})
	if err != nil {
		return nil, err
	}
	bi.closers = append(bi.closers, func() { node.Close() })
	bi.server = node.Server()
	bi.coord = transactions.NewCoordinator()
	store := transactions.NewStore("branch", nil)
	if bi.tr == nil {
		bank.RegisterBehavior(node.Behaviors(), bi.coord, store)
	} else {
		node.Behaviors().Register("bank.branch", func(values.Value) (engineering.Behavior, error) {
			return tracedHandler{bank.NewBranchHandler(bi.coord, store), bi.tr}, nil
		})
	}
	capsule, err := node.CreateCapsule()
	if err != nil {
		return nil, err
	}
	cluster, err := capsule.CreateCluster(engineering.ClusterOptions{})
	if err != nil {
		return nil, err
	}
	obj, err := cluster.CreateObject("bank.branch", values.Null())
	if err != nil {
		return nil, err
	}
	refs := map[string]naming.InterfaceRef{}
	for _, it := range []*types.Interface{bank.TellerType(), bank.ManagerType(), bank.LoansOfficerType()} {
		ref, err := obj.AddInterface(it)
		if err != nil {
			return nil, err
		}
		refs[it.Name] = ref
	}
	return refs, nil
}

// childProc is a served odpnode.
type childProc struct {
	cmd     *exec.Cmd
	drained chan struct{} // closed when the child's stdout has reached EOF
}

// stop asks the child to end and waits until it has; a child that ignores
// the interrupt is killed.
func (c *childProc) stop() {
	_ = c.cmd.Process.Signal(os.Interrupt)
	kill := time.AfterFunc(2*time.Second, func() { _ = c.cmd.Process.Kill() })
	<-c.drained
	_ = c.cmd.Wait()
	kill.Stop()
}

// startChild serves the branch from the shipped odpnode binary in a child
// process and parses the interface references it prints.
func (bi *bankInstance) startChild(cfg runConfig) (map[string]naming.InterfaceRef, error) {
	if cfg.odpnode == "" {
		return nil, errors.New("rpc_xproc needs the odpnode binary")
	}
	manage := cfg.tr != nil // server-side counts of the traced run come through Management
	cmd := exec.Command(cfg.odpnode, "-serve", "-behavior", "bank",
		"-mgmt="+strconv.FormatBool(manage), "-listen", "tcp://127.0.0.1:0")
	// One P for the child as for the generator (main.go): one caller keeps
	// one goroutine runnable on each side, and two processes of two Ps each
	// on two cores measure their spinning threads, not the call.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start odpnode: %w", err)
	}
	want := 3
	if manage {
		want = 4
	}
	refs := map[string]naming.InterfaceRef{}
	// A child that never prints is killed, which ends the scan.
	watchdog := time.AfterFunc(10*time.Second, func() { _ = cmd.Process.Kill() })
	sc := bufio.NewScanner(stdout)
	for len(refs) < want && sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 3 {
			continue
		}
		id, err := naming.ParseInterfaceID(f[0])
		if err != nil {
			continue
		}
		refs[f[1]] = naming.InterfaceRef{ID: id, TypeName: f[1], Endpoint: naming.Endpoint(f[2])}
	}
	watchdog.Stop()
	if len(refs) < want {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, fmt.Errorf("odpnode printed %d of %d interfaces", len(refs), want)
	}
	child := &childProc{cmd: cmd, drained: make(chan struct{})}
	go func() { // keep reading so the child never blocks on a full pipe
		_, _ = io.Copy(io.Discard, stdout)
		close(child.drained)
	}()
	bi.child = child
	bi.closers = append(bi.closers, child.stop)
	return refs, nil
}

// startFacade deploys the branch through odp.System on the simulated
// network and binds from the node's own host, the way every example does.
func (bi *bankInstance) startFacade(seed int64, callers int) (teller, manager []*channel.Binding, err error) {
	sys := odp.NewSystem(seed)
	bi.sys = sys
	bi.closers = append(bi.closers, func() { sys.Close() })
	sys.EnableRelocationCache(1024)
	node, err := sys.CreateNode("bank")
	if err != nil {
		return nil, nil, err
	}
	bi.coord = transactions.NewCoordinator()
	store := transactions.NewStore("branch", nil)
	bank.RegisterBehavior(node.Behaviors(), bi.coord, store)
	dep, err := sys.Deploy(node, bank.Template("branch"), values.Record(values.F("city", values.Str("brisbane"))))
	if err != nil {
		return nil, nil, err
	}
	bi.ref, _ = dep.Ref("BankTeller")
	for i := 0; i < callers; i++ {
		tb, err := sys.ImportAndBind("bank", "BankTeller", "", facadeContract)
		if err != nil {
			return nil, nil, err
		}
		bi.closers = append(bi.closers, func() { tb.Close() })
		teller = append(teller, tb)
	}
	mb, err := sys.ImportAndBind("bank", "BankManager", "", facadeContract)
	if err != nil {
		return nil, nil, err
	}
	bi.closers = append(bi.closers, func() { mb.Close() })
	return teller, []*channel.Binding{mb}, nil
}

var facadeContract = core.Contract{Require: core.TransparencySet(core.Access | core.Location | core.Relocation)}

func (bi *bankInstance) run(p *phase) {
	if p.traced && bi.coord != nil {
		_, bi.abort0 = bi.coord.Stats()
	}
	var wg sync.WaitGroup
	for i, c := range bi.callers {
		wg.Add(1)
		go func(c *bankCaller, s *sampler) {
			defer wg.Done()
			c.loop(p, s, bi.tr)
		}(c, p.samplers[i])
	}
	wg.Wait()
}

// loop is one caller's closed loop: the next interrogation starts when the
// previous one has returned.
func (c *bankCaller) loop(p *phase, s *sampler, tr *tracer) {
	var off int64 // phase time to tracer time
	traced := p.traced && tr != nil
	if traced {
		off = int64(p.start.Sub(tr.base))
	}
	for {
		op, args, amount := "Balance", c.balArgs, int64(0)
		if c.rng.Float64() < depositShare {
			amount = 1 + c.rng.Int63n(100)
			c.depArgs[2] = values.Int(amount)
			op, args = "Deposit", c.depArgs
		}
		var o *opTrace
		if traced && tr.capture.Load() {
			if tr.captured.Add(1) <= maxCaptured {
				c.seq++
				o = &opTrace{id: fmt.Sprintf("%s#%d", c.cust, c.seq)}
				c.slot.cur.Store(o)
			} else {
				tr.capture.Store(false)
			}
		}
		t0 := p.now()
		if p.over(t0) {
			return
		}
		s.attempted++
		term, res, err := c.b.Invoke(p.ctx, op, args)
		t1 := p.now()
		if traced {
			tr.bound[bInvokeIn].add(t0 + off)
			tr.bound[bInvokeOut].add(t1 + off)
			if o != nil {
				o.mark(bInvokeIn, t0+off)
				o.mark(bInvokeOut, t1+off)
				c.slot.cur.Store(nil)
				tr.finish(o)
			}
		}
		if err != nil || term != "OK" || len(res) != 1 {
			s.fail("%s %s: termination %q %v, error %v", c.cust, op, term, res, err)
			continue
		}
		c.deposited += amount
		if got, _ := res[0].AsInt(); got != c.opening+c.deposited {
			// the branch lost or invented money
			s.fail("%s %s: balance %d, want %d", c.cust, op, got, c.opening+c.deposited)
			continue
		}
		s.done(t1, t1-t0)
	}
}

// verify reads every account back: the balance must be the opening deposit
// plus every acknowledged deposit.
func (bi *bankInstance) verify() (checked, failed int64) {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	for _, c := range bi.callers {
		checked++
		term, res, err := c.b.Invoke(ctx, "Balance", c.balArgs)
		if err != nil || term != "OK" || len(res) != 1 {
			failed++
			continue
		}
		if got, _ := res[0].AsInt(); got != c.opening+c.deposited {
			failed++
		}
	}
	return
}

// crossed lists the boundaries every interrogation of a shape crosses
// under a decorator. The facade builds its own transport and stages, so
// there only Invoke is timed.
var crossed = map[string][]int{
	"inproc": {bInvokeIn, bStageOut, bCliSendIn, bCliSendOut, bSrvRecv, bHandlerIn, bHandlerOut,
		bSrvSendIn, bSrvSendOut, bCliRecv, bStageIn, bInvokeOut},
	// The child cannot be decorated.
	"xproc": {bInvokeIn, bStageOut, bCliSendIn, bCliSendOut, bCliRecv, bStageIn, bInvokeOut},
}

func (bi *bankInstance) layers(p *phase, m metrics) {
	tr := bi.tr
	_, _, _, completed := p.totals()
	ops := float64(completed)

	// The layer times are differences of boundary means, which mean nothing
	// unless every operation crossed every boundary: with unequal counts
	// they are left out (reported as 0) and the mismatch is reported.
	var servant float64
	if bs := crossed[bi.shape.mode]; bs != nil {
		mismatch := tr.mismatch(bs)
		m["loadgen.boundary_mismatch"] = float64(mismatch)
		if mismatch == 0 {
			servant = bi.attribute(m)
		}
		tr.netsimCounters(ops, m)
	}

	var retries, relocations uint64
	for _, c := range bi.callers {
		st := c.b.Stats()
		retries += st.Retries
		relocations += st.Relocations
	}
	m["channel.client.retries_per_kop"] = float64(retries) / ops * 1e3
	m["channel.client.relocations_per_kop"] = float64(relocations) / ops * 1e3

	if bi.server != nil {
		serverCounters(bi.server, m)
	} else if bi.mgmtB != nil {
		for k, v := range childCounters(bi.mgmtB) {
			m[k] = v
		}
	}

	// The servant span is the bank's own work plus the transaction
	// function's; a replay of the same transactions on a store of the
	// bench's own says how much is the latter.
	txUs, txAllocs := replayTransactions(depositShare)
	m["transactions.atomically_us"] = txUs
	m["transactions.allocs_per_tx"] = txAllocs
	if bi.coord != nil {
		_, aborts := bi.coord.Stats()
		m["transactions.aborts_per_kop"] = float64(aborts-bi.abort0) / ops * 1e3
	}
	if servant > 0 {
		m["bank.self_us_per_op"] = servant - txUs
	}

	replayFrames(tr, m)
	if bi.sys != nil {
		bi.facadeLayers(p, m)
	}
}

// attribute adds the mean time an interrogation spent between each pair of
// neighbouring boundaries and returns the servant's share in microseconds.
func (bi *bankInstance) attribute(m metrics) (servant float64) {
	between := bi.tr.between
	out := between(bInvokeIn, bCliSendIn)
	in := between(bCliRecv, bInvokeOut)
	send := between(bCliSendIn, bCliSendOut)
	var transit, pre, post float64
	if bi.shape.mode == "inproc" {
		send += between(bSrvSendIn, bSrvSendOut)
		transit = between(bCliSendOut, bSrvRecv) + between(bSrvSendOut, bCliRecv)
		pre = between(bSrvRecv, bHandlerIn)
		servant = between(bHandlerIn, bHandlerOut)
		post = between(bHandlerOut, bSrvSendIn)
	} else {
		// Everything between the client's Send returning and its Recv
		// returning is transit.
		transit = between(bCliSendOut, bCliRecv)
	}
	m["channel.client.out_us_per_op"] = out
	m["channel.client.sendq_wait_us_per_op"] = between(bStageOut, bCliSendIn)
	m["channel.client.in_us_per_op"] = in
	m["netsim.send_us_per_op"] = send
	m["netsim.transit_us_per_op"] = transit
	m["channel.server.pre_us_per_op"] = pre
	m["channel.server.post_us_per_op"] = post
	// The layer means tile the interrogation, so they must add up to its
	// traced mean latency.
	if traced := between(bInvokeIn, bInvokeOut); traced > 0 {
		sum := out + send + transit + pre + servant + post + in
		m["loadgen.attribution_residual_share"] = math.Abs(traced-sum) / traced
	}
	return servant
}

// facadeLayers measures what the facade adds to a call and what a bind
// through it costs.
func (bi *bankInstance) facadeLayers(p *phase, m metrics) {
	sys := bi.sys
	// The same calls over a bare channel binding on the same simulated
	// network: no trader import, no contract, no relocation cache.
	bare, err := channel.Bind(bi.ref, channel.BindConfig{Transport: sys.Net.From("bank")})
	if err == nil {
		saved := make([]*channel.Binding, len(bi.callers))
		for i, c := range bi.callers {
			saved[i], c.b = c.b, bare
		}
		bp := runPhase(bi, time.Second, false, 1<<16)
		for i, c := range bi.callers {
			c.b = saved[i]
		}
		bare.Close()
		if bs := summarize(bp.samplers); bs.samples > 0 {
			m["odp.facade_self_us_per_op"] = m["loadgen.traced_lat_mean_us"] - bs.mean/1e3
		}
	}
	const binds = 100
	t0 := time.Now()
	done := 0
	for i := 0; i < binds; i++ {
		b, err := sys.ImportAndBind("bank", "BankTeller", "", facadeContract)
		if err != nil {
			break
		}
		b.Close()
		done++
	}
	if done > 0 {
		m["odp.bind_us"] = float64(time.Since(t0).Microseconds()) / float64(done)
	}
	if cache := sys.RelocationCache(); cache != nil {
		st := cache.Stats()
		if st.Hits+st.Misses > 0 {
			m["relocator.cache_hit_share"] = float64(st.Hits) / float64(st.Hits+st.Misses)
		}
		const lookups = 200_000
		t0 := time.Now()
		for i := 0; i < lookups; i++ {
			_, _ = cache.Lookup(bi.ref.ID)
		}
		m["relocator.lookup_ns"] = float64(time.Since(t0).Nanoseconds()) / lookups
	}
}

// serverCounters adds an in-process server's own counters.
func serverCounters(srv *channel.Server, m metrics) {
	st := srv.Stats()
	m["channel.server.errors"] = float64(st.Errors)
	m["channel.server.bad_frames"] = float64(st.BadFrames)
	m["channel.server.sessions"] = float64(st.Sessions)
}

// childCounters reads the served node's own channel counters through its
// Management interface.
func childCounters(b *channel.Binding) metrics {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	out := metrics{}
	term, res, err := b.Invoke(ctx, "Metrics", nil)
	if err != nil || term != "OK" || len(res) != 1 {
		return out
	}
	text, _ := res[0].AsString()
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) != 3 || f[0] != "counter" {
			continue
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasSuffix(f[1], ".errors") && strings.HasPrefix(f[1], "channel.server."):
			out["channel.server.errors"] = v
		case strings.HasSuffix(f[1], ".bad_frames"):
			out["channel.server.bad_frames"] = v
		case strings.HasSuffix(f[1], ".sessions_total"):
			out["channel.server.sessions"] = v
		}
	}
	return out
}
