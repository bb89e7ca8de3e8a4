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

echo "== one-coherence-rule gate (a moved interface is found one way: the binding invalidates and asks) =="
# A binding that holds staleness evidence invalidates the relocation
# cache's entry and asks the relocator; that rule works for a remote
# authority too, and nothing pushes a move into a cache. The relocator's
# change events and subscriber list, the facade's relocation topic and its
# codec, and the cache's push path (Observe, Fence) may not come back.
if grep -rnE 'TopicRelocated|relocation(To|From)Value|relocator\.Event\b' --include='*.go' --exclude='*_test.go' \
	--exclude-dir=bench --exclude-dir=.bench_build . ||
	grep -nE '^type Event\b|func \([a-z]+ \*[A-Za-z]+\) (Subscribe|Observe|Fence)\(' \
		$(find internal/relocator -name '*.go' ! -name '*_test.go'); then
	echo "a relocation push path is back beside the binder's invalidate-and-ask (a cache learns of a move only from a binding's staleness evidence)"
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

echo "== one-writer gate (the caller that finds a connection's queue idle writes it) =="
# A connection end has no sender goroutine: its frames are written by the
# caller that queued into an idle send queue. The sender loop and the
# channel that woke it may not come back, and internal/channel starts no
# goroutine but the session's read loop (session.go) and the server's
# workers, accept loop and per-connection read loop (server.go).
ch_src=$(find internal/channel -name '*.go' ! -name '*_test.go')
if grep -nwE 'senderLoop|kick' $ch_src; then
	echo "internal/channel: a sender goroutine is back (the caller that finds the queue idle writes)"
	exit 1
fi
gostmt='^[[:space:]]*go[[:space:]]'
if grep -lE "$gostmt" $ch_src | grep -vxE 'internal/channel/(session|server)\.go' ||
	[ "$(grep -cE "$gostmt" internal/channel/session.go)" -ne 1 ] ||
	! grep -qE '^[[:space:]]*go s\.readLoop\(\)$' internal/channel/session.go ||
	[ "$(grep -cE "$gostmt" internal/channel/server.go)" -ne 3 ]; then
	grep -nE "$gostmt" $ch_src
	echo "internal/channel: a goroutine beside the read loops, the accept loop and the workers"
	exit 1
fi

echo "== option gate (one value in use is a constant; the bus is one type with one delivery path) =="
# The tunables no binary, example, experiment or benchmark ever set are
# constants beside the code that uses them, and the event bus is one type
# at any shard count with one delivery path: neither the fields, the second
# bus type and the interface that hid which one a zero selected, nor the
# queued subscriber and the filter no caller passed may come back —
# anywhere, bench/ included (it names none). NewShardedBus stays: the \b
# in front keeps it and the TestShardedBus* names out of the match.
if grep -rnE 'ReplyCacheSize|MaxGuardBindings|MaxBackoff|RTTFactor|WindowBytes|coordination\.EventBus|\bShardedBus\b|QueueStats|SubscribeQueued|type Filter func' --include='*.go' \
	--exclude-dir=.bench_build .; then
	echo "a removed option, the second bus type or a second delivery mode is back (state the bound as a constant; NewShardedBus(n) is the bus at n shards; a subscriber filters in its callback)"
	exit 1
fi

echo "== no-heartbeat gate (a binding has no in-flight cap and sends no probe; its contract alone fills its retry policy) =="
# Only their own tests ever set the binding's in-flight cap, the two
# fail-fast modes or a facade-wide retry policy, or sent the session
# heartbeat: none may come back (bench/ names none). Wire kinds 7 and 8
# stay retired holes, so CreditGrant and FlowBatch keep their bytes.
if grep -rnE 'MaxInFlight|\bFailFast\b|ErrTooManyInFlight|ErrNoCredit|probeShared|LastProbe|ProbesSent|ProbesCoalesced|\.Probe\(|wire\.Probe\b|ProbeAck' --include='*.go' \
	--exclude-dir=bench --exclude-dir=.bench_build . ||
	grep -rn 'RetryPolicy' --include='*.go' --exclude='*_test.go' internal/odp internal/transparency cmd examples; then
	echo "a knob no workload sets, or the heartbeat, is back (the contract is the only knob; liveness is a dial or a call)"
	exit 1
fi

echo "== what-runs gate (no raw signal layer and no transactional delete) =="
# §5.1's raw signal interfaces and §8.2.1's transactional delete were run by
# no binary, example or bench row, and are deleted: the signal kind, its
# frame kind (4 is a retired hole), its receiver, its server path and its
# primitive trace, and Tx.Delete with the log's delete flag. The one-way
# operation that runs is the announcement (examples/quickstart). None may
# come back unrun — anywhere, bench/ included (it names none).
if grep -rnE 'SignalMsg|SignalReceiver|SignalInterface|SignalTrace|handleSignal|func \([a-z]+ \*Tx\) Delete\(' --include='*.go' \
	--exclude-dir=.bench_build . ||
	grep -nE '^[[:space:]]+Delete[[:space:]]+bool' $(find internal/transactions -name '*.go' ! -name '*_test.go'); then
	echo "a raw signal path or the transactional delete is back (run it from an example or a binary, or leave it out)"
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

echo "== one-transfer-syntax gate (two representations, one encoder, one cursor) =="
# Native and Canonical are the two values of one Codec struct: one encoder
# writes both, choosing byte order and widening from the value, and one
# bounded cursor reads the header and the payload. The Codec interface, a
# second AppendValue and a decoder that threads a binary.ByteOrder through
# every call — the hand-copied codecs they replaced live on only as the
# reference model in reference_test.go — may not come back.
wire_src=$(find internal/wire -name '*.go' ! -name '*_test.go')
if grep -nE 'type[[:space:]]+Codec[[:space:]]+interface|binary\.(Append)?ByteOrder' $wire_src; then
	echo "internal/wire: a codec interface or a byte-order parameter is back (choose from the Codec value)"
	exit 1
fi
appends=$(cat $wire_src | grep -cE '^func \([^)]*\) AppendValue\(' || true)
if [ "$appends" -ne 1 ]; then
	echo "internal/wire: $appends AppendValue methods (one encoder writes both representations)"
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

echo "== type-repository gate (the repository keeps the operations trading and binding use) =="
# §8.3.1 gives the type repository one job: type checking during trading
# and binding. It registers and looks up interface types and answers the
# subtype check; DeclareSubtype is that check, storing nothing. The
# data-type registry, the relationship repository, the hierarchy listings
# and the declared-edge store had no caller but their own tests, and §5.2's
# activities had none at all: none may come back unrun. Run a concept from
# an example or a binary before it is declared again.
tr_src=$(find internal/typerepo -name '*.go' ! -name '*_test.go')
if grep -nE '^[[:space:]]*(func[[:space:]]+\([^)]*\)[[:space:]]+)?(RegisterData|LookupData|Supertypes|Subtypes|DeclaredSupertypes|Relate|Related)\(' $tr_src ||
	grep -nE '^[[:space:]]+(declared|relations|data)[[:space:]]+[][*A-Za-z]' $tr_src ||
	grep -nE '^(type)?[[:space:]]+Activity[[:space:]]' $(find internal/core -name '*.go' ! -name '*_test.go'); then
	echo "an unrun §8.3.1 or §5.2 surface is back (run it from an example or a binary, or leave it out)"
	exit 1
fi

echo "== minted-key gate (an account is stored under its id; an offer id is minted without fmt) =="
# The branch stores an account under the id it mints and refuses any other
# id before it reads the store, so a call names no key but an account's;
# the trader mints "<trader>/<seq>" into a stack buffer. Neither the
# "acct/" key prefix nor a Sprintf on the export path may come back.
if grep -n 'acct/' $(find internal/bank -name '*.go' ! -name '*_test.go') || grep -n 'fmt\.Sprintf' $(find internal/trader -name '*.go' ! -name '*_test.go'); then
	echo 'internal/bank or internal/trader: an "acct/" store key or an fmt.Sprintf is back (key an account by its id; mint with strconv)'
	exit 1
fi

echo "== reachability gate (every declaration in internal/ is run by a binary, an example or a bench row, or has an owner; every field is read; every setting is set) =="
# A go/types scan from main/init of cmd/*, examples/* and bench/ (behind
# the deadcode build tag, so tier 1 never builds it): an unreached
# declaration, an unexported struct field written but never read, or a
# setting (an exported field of a *Config/*Options/*Policy struct or of
# transparency.Env) that reached code reads and nothing outside its
# package sets, that scripts/deadcode/allow.txt does not own, a stale
# allow pattern, a reason that does not start with its owner (ROADMAP item
# N, test seam, test support or the experiments' own scales; a paper
# section alone owns nothing), or a reason naming a test that does not
# exist fails. Its four figures print with the line counts below.
reach=$(go test -tags deadcode -count=1 -v ./scripts/deadcode/ 2>&1) || { echo "$reach"; exit 1; }

echo "== non-test Go lines (excluding bench/; internal/experiments alone; internal/odp + cmd/odp{node,trader,stat}; cmd/odpbench; internal/channel; internal/trader + internal/relocator + internal/hashring; internal/policy + internal/health; internal/stream; internal/coordination; internal/wire) and this script =="
# The size figures ROADMAP tracks; printed, not gated. The first line is
# followed by the reachability scan's four figures.
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
find internal/wire -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
wc -l scripts/check.sh

echo "== race detector (hot-path and fan-out packages) =="
go test -race ./internal/values/ ./internal/types/ \
	./internal/wire/ ./internal/channel/ ./internal/netsim/ \
	./internal/transactions/ ./internal/coordination/ ./internal/trader/ \
	./internal/constraint/ \
	./internal/mgmt/ ./internal/relocator/ ./internal/policy/ \
	./internal/hashring/ ./internal/odp/ ./internal/stream/ \
	./internal/typerepo/ ./internal/health/ ./internal/fanout/ \
	./internal/engineering/ ./internal/stub/ ./internal/bank/ \
	./cmd/odpnode/ ./cmd/odptrader/ ./cmd/odpbench/ ./cmd/odpstat/ ./cmd/bankdemo/

echo "== recovery reconciles (a heal waits out its breaker, a busy worker drops no verdict, a failing plan is retried; 20 times under the race detector) =="
# The controller keeps each endpoint's latest verdict and the state whose
# plan last succeeded, and drives the two together: a lost verdict, a heal
# dropped at an open breaker, a plan given up after one round or a waiting
# endpoint that holds up another is a failing test here.
go test -race -count=20 -run 'TestController' ./internal/health/

echo "== combining send queue (nothing stranded, per-sender order, one binding's pipeline batched; 20 times under the race detector) =="
# TestFrameQueueStrandsNothing: 32 goroutines enqueue and flush through one
# queue whose byte bound and batch cap are small enough to park enqueuers
# and split batches, then two enqueuers race the writer's exit 10,000
# times. TestOneBindingBatchesItsPipeline: 64 callers of one binding queue
# behind a held write, which pins the write outside the binding's order lock.
go test -race -count=20 -run 'TestFrameQueueStrandsNothing|TestOneBindingBatchesItsPipeline' ./internal/channel/

echo "== a call follows its binding's move (20 times under the race detector; the bank demo's migrations, 50) =="
# TestSessionFollowsASiblingsMove: eight callers ask a binding for its
# session while the test flips it between two live servers; a caller whose
# endpoint lost its last reference to a sibling's move must follow the
# binding, never fail with ErrClosed. TestRunMigrationsAreInvisible: the
# bank demo's customers see no failure through six live migrations (it
# failed about once in 450 loaded runs while that answer was ErrClosed).
go test -race -count=20 -run 'TestSessionFollowsASiblingsMove' ./internal/channel/
go test -race -count=50 -run 'TestRunMigrationsAreInvisible' ./cmd/bankdemo/

echo "== reuse rules (lent and carved values, the constraint memo, lent parse buffers, fan-out workers, bounded free lists; 20 times under the race detector) =="
# The tests' own doc comments say what each holds: TestBorrowed* and
# TestCarvedResults* (channel, stream), TestFanOutLegsOwnTheirResults,
# TestMemoSharedSlotRace, TestFirstSightImportsRace, TestCarvedPayloadsRace,
# TestDo* (fanout; TestDoIdleWorkersExit waits 1–2 s a run), TestList* and
# TestConcurrentChurn (bufpool). The pattern is anchored, so it runs no
# other test of these packages.
go test -race -count=20 -run '^(TestBorrowed|TestCarvedResults|TestCarvedPayloadsRace$|TestFanOutLegsOwnTheirResults$|TestMemoSharedSlotRace$|TestFirstSightImportsRace$|TestDo|TestList|TestConcurrentChurn$)' \
	./internal/channel/ ./internal/stream/ ./internal/coordination/ ./internal/constraint/ \
	./internal/trader/ ./internal/wire/ ./internal/fanout/ ./internal/bufpool/

echo "== copy-on-write offers (an import copies stored offers after the read lock; 20 times under the race detector) =="
# TestModifyDuringMultiLegImport: an import merges pointers to stored offers
# and copies the ones it returns once every store's read lock is released,
# so Modify must store a fresh offer and never write one in place.
# Modifiers flip offers between internally consistent versions while root
# imports span all four shards of a bench-shaped front-end; an in-place
# write is a reported race, or a torn version in an answer.
go test -race -count=20 -run 'TestModifyDuringMultiLegImport' ./internal/trader/

echo "== group slot (a failed member misses every later update; the rejoin race, 50 times under the race detector) =="
# TestRetainedFailureMissesNoLaterUpdate: 300 seeded trials of four
# concurrent updaters against a retained member that fails once; it must
# apply no later update and no reply may diverge. TestOnRejoinRacesRingEpoch
# is the ring-epoch drain whose divergences that property explains.
go test -race -count=50 -run 'TestOnRejoinRacesRingEpoch|TestRetainedFailureMissesNoLaterUpdate' ./internal/coordination/

echo "== bounded log and commitment (recovery across checkpoints, three schedules under the race detector) =="
# The store truncates its in-memory log to a checkpoint plus the prepare
# records still awaiting an outcome. TestRecoverAcrossCheckpoints holds
# recovery, InDoubt and the bound to a reference map over 20,000 seeded
# transactions on one to three stores, one-phase commits and lost
# acknowledgements among them; -count=3 runs its two-phase fan-out on more
# than one schedule. The soaks bound the log and the decision table.
go test -race -count=3 -run 'Checkpoint|Recover|InDoubt|Soak|RetainedTx' ./internal/transactions/

echo "== lock queue (a cancelled waiter grants what queued behind it, 50 times under the race detector) =="
go test -race -count=50 -run 'TestCancelledWaiterUnblocksQueue' ./internal/transactions/

echo "== FuzzValue (the narrow value against its reference model, 10 s) =="
go test -run='^$' -fuzz=FuzzValue -fuzztime=10s ./internal/values/

echo "== FuzzConstraint (the flat program against the tree it replaced, 10 s) =="
go test -run='^$' -fuzz=FuzzConstraint -fuzztime=10s ./internal/constraint/

echo "== FuzzCodecMatchesReference (the one encoder and cursor against the codecs they replaced, 10 s) =="
go test -run='^$' -fuzz='^FuzzCodecMatchesReference$' -fuzztime=10s ./internal/wire/

echo "== FuzzDecode (the frame parser is total and bounded, 10 s) =="
go test -run='^$' -fuzz='^FuzzDecode$' -fuzztime=10s ./internal/wire/

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
# leaf, mid-level and root import allocations and bytes, under a known
# constraint and a never-seen one, and their flatness in the number of
# matches in internal/trader (TestImportAllocBudget), with
# a lone leg's and a multi-leg fan-out's parity with the bare store
# (TestLoneLegCostsWhatTheStoreCosts), a compilation's allocations, a
# memo hit's none and a lent buffer's none in internal/constraint
# (TestParseAllocBudget), a FlowBatch of 32 elements of 1 KiB filling one
# carved chunk and nothing else in internal/wire
# (TestFlowBatchDecodeAllocBudget), a warm
# fan-out's none in internal/fanout (TestDoWarmAllocatesNothing), the
# bounded transaction log
# in internal/transactions (a warmed one-key commit allocating nothing in
# the log, TestLogAppendSteadyStateAllocatesNothing, and 300,000 deposits
# within the bound on an arena that stops growing, TestBoundedLogSoak), and
# E10's one connection for 256 bindings in internal/experiments.
for id in e12 e13 e14 e15 e16; do
	go run ./cmd/odpbench -only "${id}smoke"
done

echo "check.sh: all gates passed"
