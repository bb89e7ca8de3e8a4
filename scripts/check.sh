#!/usr/bin/env sh
# check.sh — the tier-2 gate.
#
# Tier 1 (the build gate) is `go build ./... && go test ./...`. This script
# adds the checks that guard the invocation hot path: vet, the race detector
# over the packages that share pooled buffers across goroutines (wire,
# channel, netsim) and the packages that fan work out across goroutines
# (transactions' parallel 2PC, coordination's sequencer fan-out, trader's
# concurrent federation and shard legs, and the parsed constraint those legs
# share), and the experiment gates that run too long for tier 1.
#
# Run from the repository root:  ./scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== bench module (build + vet + test) =="
# bench/ is a module of its own, so the root build above does not notice
# when an API removal breaks the benchmark. Its smoke test drives all seven
# workloads for 300 ms each with the bank, trader and stream oracles on
# (10 s in all), so a hot-path change that breaks an oracle fails here
# instead of at the driver.
(cd bench && go build ./... && go vet ./... && go test ./...)

echo "== facade gate (configuration is a value; the binaries are the facade) =="
# odp.System is configured by odp.New(Config) alone: no late-bound mutator
# may come back (EnableRelocationCache is the one shim the frozen bench
# pins), and odpnode/odptrader/odpstat may not wire a node or a binding by
# hand beside the facade.
if grep -nE 'func \(s \*System\) (Enable|Shard|Replicate|SetDefault)' \
	$(find internal/odp -name '*.go' ! -name '*_test.go') | grep -v 'EnableRelocationCache('; then
	echo "internal/odp: order-sensitive facade mutator declared (use a Config field)"
	exit 1
fi
if grep -nE 'engineering\.NewNode\(|CreateCapsule\(|CreateCluster\(|channel\.(Bind|NewServer)\(|netsim\.NewTCP\(\)' \
	$(find cmd/odpnode cmd/odptrader cmd/odpstat -name '*.go' ! -name '*_test.go'); then
	echo "cmd: a binary wires the engineering layer by hand (go through odp.New)"
	exit 1
fi
# The trading function is one type at every shard count: System.Directory
# is the front-end, which alone holds federation links and the one trader
# bundle, so neither a type switch on it nor the singleton's links and
# bundle may come back.
if grep -rnE 'Directory\.\((type|\*?trader\.)|TraderInstr|func \(t \*Trader\) (Link|Unlink|Links|SetLinkBreakers)\(' \
	--include='*.go' --exclude-dir=bench --exclude-dir=.bench_build .; then
	echo "the singleton trader is back beside the front-end (the directory is *trader.ShardedTrader at every shard count)"
	exit 1
fi

echo "== group gate (the group function is service-agnostic) =="
# A service's own Remote proxy takes a group as one more carrier; the
# per-service adapters that made coordination import the services it
# replicates may not come back. .Imports lists non-test imports only.
if go list -f '{{join .Imports "\n"}}' ./internal/coordination |
	grep -E '^repro/internal/(relocator|trader|typerepo)$'; then
	echo "internal/coordination: imports a service package (give the service's NewRemote the group instead)"
	exit 1
fi

echo "== one-membership gate (both group forms share one member view; the sequencer is one slot) =="
# ReplicaGroup and FailoverGroup publish one immutable member view that a
# change swaps whole, and an update holds one context-aware slot from
# before it reads that view until its failed members are recorded and
# dropped. The ticket, the condition variable it waited on and the member
# slice rewritten in place may not come back.
if grep -nE 'seqCond|serving|ticket|copy\(g\.members|g\.members\[' \
	$(find internal/coordination -name '*.go' ! -name '*_test.go'); then
	echo "internal/coordination: a second sequencer or an in-place member slice is back (change the view, hold the slot)"
	exit 1
fi

echo "== one wire contract gate (the infrastructure objects share one client and server stub) =="
# How a trader, relocator or type repository call is carried and how its
# failures cross the wire is internal/stub's alone: the carrier interface,
# the InvokeRead routing, the call timeout, the reply decoder, the argument
# count and the error-to-termination mapping. No service may declare its
# own again, and the stub's context.TODO() stays the only one outside
# bench/. internal/stub imports only the standard library, types and
# values, so typerepo stays a leaf.
if grep -nE 'callTimeout|type carrier\b|remoteFailure|var arity\b|context\.TODO' \
	$(find internal/trader internal/relocator internal/typerepo -name '*.go' ! -name '*_test.go'); then
	echo "internal/{trader,relocator,typerepo}: a service hand-writes its stub again (declare a stub.Contract)"
	exit 1
fi
todo=$(grep -rlF 'context.TODO()' --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build . | wc -l)
if [ "$todo" -gt 1 ]; then
	grep -rlF 'context.TODO()' --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build .
	echo "context.TODO() in $todo non-test files (internal/stub's call timeout is the one)"
	exit 1
fi
if go list -f '{{join .Imports "\n"}}' ./internal/stub | grep -E '^repro/' | grep -vxE 'repro/internal/(types|values)'; then
	echo "internal/stub: imports a repository package other than types and values"
	exit 1
fi

echo "== one-protocol gate (one shard move for the trader and the relocator) =="
# The live ring change — ring, previous ring, epoch, change lock, member
# set — is hashring.Partition's alone: neither front-end may declare its own
# changeRing, change lock, moving map or ring field again. Every ring places
# 64 virtual points per member (bench/ still passes the ignored argument),
# and hashring stays a leaf package.
if grep -nE 'func \([a-z]+ \*[A-Za-z]+\) changeRing\(|rebalanceMu|\bmoving +map\[|\*hashring\.Ring\b' \
	$(find internal/trader internal/relocator -name '*.go' ! -name '*_test.go'); then
	echo "internal/trader, internal/relocator: a second ring-change protocol is back (route through hashring.Partition)"
	exit 1
fi
if grep -rnE 'hashring\.New\([^)]' --include='*.go' --exclude-dir=bench --exclude-dir=.bench_build .; then
	echo "hashring.New takes no replica count"
	exit 1
fi
if go list -f '{{join .Imports "\n"}}' ./internal/hashring | grep -E '^repro/'; then
	echo "internal/hashring: imports a repository package (it must stay a leaf)"
	exit 1
fi

echo "== one-move gate (a cluster changes state behind one gate; nobody above it compensates) =="
# Deactivate, MigrateTo and deletion share one admission gate per cluster,
# and MigrateTo drains, installs at the destination and only then withdraws,
# so a held call is answered CodeNoSuchInterface once the relocator already
# names the new home. The binder's relocation cap, the session fence, the
# "is gone" answer and restore's fresh-identity mode may not come back.
if grep -nE 'maxRelocations|\bfences\b|func \(m \*SessionManager\) fence\(' \
	$(find internal/channel -name '*.go' ! -name '*_test.go'); then
	echo "internal/channel: the binder or the session layer compensates for a move again (the cluster's gate answers after the move)"
	exit 1
fi
if grep -nE '" is gone"|restore\([^,)]*,' $(find internal/engineering -name '*.go' ! -name '*_test.go'); then
	echo "internal/engineering: a withdraw-first migration answer or a second restore mode is back (drain, install, then withdraw)"
	exit 1
fi

echo "== fork gate (the data plane has one shape) =="
# The channel decides how a frame is carried and nobody above it chooses:
# the unbatched plane and the config type and constructor that selected it
# may not come back. E12's control arm is built in the experiment, from a
# connection without a vectored write. (bench/ is frozen and names none.)
if grep -rnE 'Unbatched|NewSessionManagerWithConfig|channel\.SessionConfig' --include='*.go' \
	--exclude-dir=bench --exclude-dir=.bench_build .; then
	echo "a second data plane is selectable again (wrap the connection in the experiment instead)"
	exit 1
fi

echo "== option gate (one value in use is a constant; the bus is one type) =="
# The tunables no binary, example, experiment or benchmark ever set are
# constants beside the code that uses them, and the event bus is one type
# at any shard count: neither the fields nor the second bus type and the
# interface that hid which one a zero selected may come back — anywhere,
# bench/ included (it names none). NewShardedBus, the constructor, stays:
# the \b in front keeps it and the TestShardedBus* names out of the match.
if grep -rnE 'ReplyCacheSize|MaxGuardBindings|MaxBackoff|RTTFactor|WindowBytes|coordination\.EventBus|\bShardedBus\b|QueueStats' --include='*.go' \
	--exclude-dir=.bench_build .; then
	echo "a removed option or the second bus type is back (state the bound as a constant; NewShardedBus(n) is the bus at n shards)"
	exit 1
fi

echo "== count-once gate (Management reads the counters Stats() keeps) =="
# A count a component's own Stats() already keeps — for one component or,
# as a keyed set, for its members — reaches Management through one mgmt.Read
# line, never through a second mgmt counter bumped beside it: the network,
# bus, policy and shard-leg bundles, the attach APIs that carried them and
# the mirrored bundle fields may not come back outside internal/mgmt.
if grep -nE 'mgmt\.(NetInstruments|BusInstruments|PolicyInstruments|ShardLegInstruments)|func \([a-z]+ \*(Network|BreakerSet)\) Instrument\(|InstrumentShards|\.(Dispatches|SessionsTotal|SessionsOpen|Reconnects|ProbesCoalesced|Dials|Updates|DegradedReads|Commits|Aborts|Rebalances|MigratedOffers|Published|QueueDepth|Partitioned|BreakerOpens|BreakerCloses|BreakersOpen|RoutedExports|RoutedImports|ElementsSent|ElementsRecv|CreditElems|CreditBytes|QueuedElems|Misses|Transitions|Invocations|Failures)\.(Inc|Add|Set)\(' \
	$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/mgmt/*' ! -path './.bench_build/*'); then
	echo "a component counts an event twice (register its Stats with mgmt.Read instead)"
	exit 1
fi

echo "== one-ruler gate (bench/ prices a call; the E-series does not time it again) =="
# What one operation costs is measured once, by bench/. A figure of the
# tutorial is pinned by its package test, a budget by a tier-1 test in the
# package it holds: the ns/op scenario machinery of internal/experiments and
# odpbench's sample-budget and duration flags may not come back.
if grep -rnE 'type (Scenario|Set)\b|timeScenarios' --include='*.go' internal/experiments ||
	grep -nE '\("(iters|dur)",' cmd/odpbench/*.go; then
	echo "a second timing ruler is back (add a bench/ row, or a tier-1 test in the package it pins)"
	exit 1
fi

echo "== narrow-value gate (unsafe stays in the value model) =="
# values.Value is 40 bytes because its composite tail is an unsafe.Pointer
# read back through unsafe.Slice; that is the one place the repository
# steps outside the type system, and the race run below (which turns on
# checkptr) and FuzzValue cover it. No other non-test file may import
# unsafe.
if grep -rlE '^[[:space:]]*(import[[:space:]]+)?"unsafe"' --include='*.go' --exclude='*_test.go' \
	--exclude-dir=.bench_build . | grep -vx './internal/values/values.go'; then
	echo "unsafe is imported outside internal/values/values.go"
	exit 1
fi

echo "== one-program gate (a constraint is one flat program) =="
# Parse compiles an expression into one array of nodes that Eval walks with
# a switch; the recursive tree of node interfaces it replaced lives on only
# as the reference model in reference_test.go. No non-test file of
# internal/constraint may declare an interface type again.
if grep -nE '^[[:space:]]*(type[[:space:]]+)?[A-Za-z_][A-Za-z0-9_]*[[:space:]]+interface[[:space:]]*\{' \
	$(find internal/constraint -name '*.go' ! -name '*_test.go'); then
	echo "internal/constraint: an interface type is back beside the flat program (evaluate nodes with a switch)"
	exit 1
fi

echo "== no-QoS gate (management owns no second, unwired monitor) =="
# The QoS monitors were wired to no binary: nothing constructed one, and
# every instrumented call checked a field nothing set. Neither the monitor,
# its envelope and violation topic, nor a QoS field on an instrument bundle
# may come back to internal/mgmt.
if grep -rnE 'type Monitor\b|\bEnvelope\b|ViolationTopic|^[[:space:]]+QoS[[:space:]]' internal/mgmt; then
	echo "internal/mgmt: a QoS monitor is back (a bundle holds only what a binary sets)"
	exit 1
fi

echo "== reachability gate (every declaration in internal/ is run by a binary, an example or a bench row, or has an owner) =="
# A go/types scan from main/init of cmd/*, examples/* and bench/ (behind
# the deadcode build tag, so tier 1 never builds it): an unreached
# declaration that scripts/deadcode/allow.txt does not own, a stale allow
# pattern, or a reason naming a test that does not exist fails. Its two
# figures print with the line counts below.
reach=$(go test -tags deadcode -count=1 -v ./scripts/deadcode/ 2>&1) || { echo "$reach"; exit 1; }

echo "== non-test Go lines (excluding bench/; internal/experiments alone; internal/odp + cmd/odp{node,trader,stat}; cmd/odpbench; internal/channel; internal/trader + internal/relocator + internal/hashring; internal/policy + internal/health; internal/stream; internal/coordination) and this script =="
# The size figures ROADMAP tracks; printed, not gated. The first line is
# followed by the reachability scan's two figures.
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 |
	xargs -0 cat | wc -l
echo "$reach" | grep '^deadcode:'
find internal/experiments -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
find internal/odp cmd/odpnode cmd/odptrader cmd/odpstat/main.go -name '*.go' ! -name '*_test.go' -print0 |
	xargs -0 cat | wc -l
find cmd/odpbench -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
find internal/channel -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
find internal/trader internal/relocator internal/hashring -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
find internal/policy internal/health -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
find internal/stream -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
find internal/coordination -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
wc -l scripts/check.sh

echo "== race detector (hot-path and fan-out packages) =="
go test -race ./internal/values/ ./internal/types/ \
	./internal/wire/ ./internal/channel/ ./internal/netsim/ \
	./internal/transactions/ ./internal/coordination/ ./internal/trader/ \
	./internal/constraint/ \
	./internal/mgmt/ ./internal/relocator/ ./internal/policy/ \
	./internal/hashring/ ./internal/odp/ ./internal/stream/ \
	./internal/typerepo/ ./internal/health/ ./internal/fanout/ \
	./internal/engineering/ ./internal/stub/ \
	./cmd/odpnode/ ./cmd/odptrader/ ./cmd/odpbench/ ./cmd/odpstat/ ./cmd/bankdemo/

echo "== group slot (a failed member misses every later update; the rejoin race, 50 times under the race detector) =="
# TestRetainedFailureMissesNoLaterUpdate: 300 seeded trials of four
# concurrent updaters against a retained member that fails once; it must
# apply no later update and no reply may diverge. TestOnRejoinRacesRingEpoch
# is the ring-epoch drain whose divergences that property explains.
go test -race -count=50 -run 'TestOnRejoinRacesRingEpoch|TestRetainedFailureMissesNoLaterUpdate' ./internal/coordination/

echo "== bounded log (recovery across checkpoints, three schedules under the race detector) =="
# The store truncates its in-memory log to a checkpoint plus the prepare
# records still awaiting an outcome. TestRecoverAcrossCheckpoints holds
# recovery, InDoubt and the bound to a reference map over 20,000 seeded
# transactions on one to three stores; -count=3 runs its two-phase fan-out
# on more than one schedule.
go test -race -count=3 -run 'Checkpoint|Recover|InDoubt' ./internal/transactions/

echo "== FuzzValue (the narrow value against its reference model, 10 s) =="
go test -run='^$' -fuzz=FuzzValue -fuzztime=10s ./internal/values/

echo "== FuzzConstraint (the flat program against the tree it replaced, 10 s) =="
go test -run='^$' -fuzz=FuzzConstraint -fuzztime=10s ./internal/constraint/

echo "== E11 chaos smoke + zero-miss rebalance probe + fleet harness + gate evaluator, under the race detector =="
# TestE11ChaosSmoke: a short chaos run asserting >=99% availability after
# the faults heal, a measured time-to-recover, breakers actually opening,
# a traced degraded read, and no leaked goroutines. TestRebalanceProbe:
# the E13 blackout and the E15 crash storm (one function) must see zero
# probe misses — a protocol property, so it holds under the race
# scheduler too. TestFleet*: the harness's own gate, closed loop and gap
# probe, including the warm-up deadline. TestGate*: the gate evaluator's
# retry rule, and every row of the gate table resolved against real records.
go test -race -run 'TestE11|TestRebalanceProbe|TestFleet|TestGate' ./internal/experiments/

echo "== experiment gates (E12 pipelining, E13 sharding, E14 streams, E15 de-singleton, E16 self-healing) =="
# odpbench holds each smoke slice to its rows of the gate table
# (internal/experiments/gates.go): a verdict per row on stderr, wall-clock
# rows best of three, a non-zero exit on a failed gate. The deterministic
# budgets are tier-1 tests in the packages they pin: the E2 deposit and
# balance allocations in internal/odp, disabled-instrumentation parity and
# the flat allocations beside 255 sibling bindings in internal/channel, the
# leaf, mid-level and root import allocations and their flatness in the
# number of matches in internal/trader (TestImportAllocBudget), with a lone
# leg's parity with the bare store (TestLoneLegCostsWhatTheStoreCosts), the
# parse allocations in internal/constraint (TestParseAllocBudget), the
# bounded transaction log in internal/transactions (a warmed one-key commit
# allocating nothing in the log, TestLogAppendSteadyStateAllocatesNothing, and
# 300,000 deposits within the bound on an arena that stops growing,
# TestBoundedLogSoak), and E10's one connection for 256 bindings in
# internal/experiments.
for id in e12 e13 e14 e15 e16; do
	go run ./cmd/odpbench -only "${id}smoke"
done

echo "check.sh: all gates passed"
