#!/usr/bin/env sh
# check.sh — the tier-2 gate.
#
# Tier 1 (the build gate) is `go build ./... && go test ./...`. This script
# adds the checks that guard the invocation hot path: vet, the race detector
# over the packages that share pooled buffers across goroutines (wire,
# channel, netsim) and the packages that fan work out across goroutines
# (transactions' parallel 2PC, coordination's sequencer fan-out, trader's
# concurrent federation and shard legs, and the parsed constraint those legs
# share), and the experiment gates that run too long for tier 1. What the design
# took out is named in scripts/deadcode/retired.txt, or else in a text gate.
#
# Run from the repository root:  ./scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "== go vet =="
go vet -tags deadcode ./... # the tag adds the scan in scripts/deadcode

echo "== go build =="
go build ./...

echo "== bench module (build + vet + test) =="
# bench/ is a module of its own, so the root build above does not notice
# when an API removal breaks the benchmark. Its smoke test drives all seven
# workloads for 300 ms each with the bank, trader and stream oracles on
# (10 s in all), so a hot-path change that breaks an oracle fails here
# instead of at the driver.
(cd bench && go build ./... && go vet ./... && go test ./...)

echo "== text gates (what retired.txt cannot name: a literal, a flag, a call's shape, a type's kind, a goroutine site) =="
refuse() { # PATTERN MESSAGE FILE...: fail when grep -E finds PATTERN in a file
	pattern=$1 message=$2
	shift 2
	! grep -nE "$pattern" "$@" || { echo "$message"; exit 1; }
}
src() { find "$@" -name '*.go' ! -name '*_test.go'; }
tree=$(find . -name '*.go' ! -path './bench/*' ! -path './.bench_build/*')
refuse 'Directory\.\((type|\*?trader\.)' "a type switch on System.Directory is back (PR 29: it is the front-end at every shard count)" $tree
refuse 'copy\(g\.members|g\.members\[' "internal/coordination: a member slice is rewritten in place (PR 38: a change swaps the whole view)" $(src internal/coordination)
refuse 'hashring\.New\([^)]' "hashring.New takes no replica count (PR 30; bench/ still passes the ignored one, ROADMAP item 1)" $tree
refuse '" is gone"|restore\([^,)]*,' "internal/engineering: a withdraw-first migration answer or a second restore mode is back (PR 31: drain, install, then withdraw)" $(src internal/engineering)
refuse '\.(Dispatches|SessionsTotal|SessionsOpen|Reconnects|ProbesCoalesced|Dials|Updates|DegradedReads|Commits|Aborts|Rebalances|MigratedOffers|Published|QueueDepth|Partitioned|BreakerOpens|BreakerCloses|BreakersOpen|RoutedExports|RoutedImports|ElementsSent|ElementsRecv|CreditElems|CreditBytes|QueuedElems|Misses|Transitions|Invocations|Failures)\.(Inc|Add|Set)\(' \
	"a component counts an event twice (PR 28: register its Stats with mgmt.Read instead)" $(find . -name '*.go' ! -name '*_test.go' ! -path './internal/mgmt/*' ! -path './.bench_build/*')
refuse '\("(iters|dur)",' "a second timing ruler is back (PR 26: add a bench/ row)" cmd/odpbench/*.go
refuse '^[[:space:]]*(type[[:space:]]+)?[A-Za-z_][A-Za-z0-9_]*[[:space:]]+interface[[:space:]]*\{' \
	"internal/constraint: an interface type is back beside the flat program (PR 33)" $(src internal/constraint)
refuse 'type[[:space:]]+Codec[[:space:]]+interface' "internal/wire: a codec interface is back (PR 39: Native and Canonical are two Codec values)" $(src internal/wire)
[ "$(src internal/wire | xargs cat | grep -cE '^func \([^)]*\) AppendValue\(')" -eq 1 ] ||
	{ echo "internal/wire: not one AppendValue method (PR 39: one encoder writes both representations)"; exit 1; }
refuse 'acct/' 'internal/bank: an "acct/" store key is back (PR 49: an account is stored under its id)' $(src internal/bank)
# PR 41: channel's goroutines are the session's read loop and the server's workers, accept and read loops.
gostmt='^[[:space:]]*go[[:space:]]'
if src internal/channel | xargs grep -lE "$gostmt" | grep -vxE 'internal/channel/(session|server)\.go' ||
	[ "$(grep -cE "$gostmt" internal/channel/session.go)" -ne 1 ] ||
	! grep -qE '^[[:space:]]*go s\.readLoop\(\)$' internal/channel/session.go ||
	[ "$(grep -cE "$gostmt" internal/channel/server.go)" -ne 3 ]; then
	src internal/channel | xargs grep -nE "$gostmt"
	echo "internal/channel: a goroutine beside the read loops, the accept loop and the workers"
	exit 1
fi

echo "== reachability and retired-names gate (every declaration in internal/ is run by a binary, an example or a bench row, or has an owner; every field is read; every setting is set; nothing retired comes back) =="
# A go/types scan (behind the deadcode build tag, so tier 1 never builds it)
# fails on what scripts/deadcode/allow.txt does not own, on a stale or
# ownerless allow line, and on what scripts/deadcode/retired.txt retires,
# or a line of it that names nothing. Its five figures print below.
reach=$(go test -tags deadcode -count=1 -v ./scripts/deadcode/ 2>&1) || { echo "$reach"; exit 1; }

echo "== non-test Go lines (excluding bench/; internal/experiments alone; internal/odp + cmd/odp{node,trader,stat}; cmd/odpbench; internal/channel; internal/trader + internal/relocator + internal/hashring; internal/policy + internal/health; internal/stream; internal/coordination; internal/wire) and this script =="
# The size figures ROADMAP tracks; printed, not gated. The first line is
# followed by the scan's five figures.
src . ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l
echo "$reach" | grep '^deadcode:'
for dirs in internal/experiments 'internal/odp cmd/odpnode cmd/odptrader cmd/odpstat/main.go' cmd/odpbench internal/channel \
	'internal/trader internal/relocator internal/hashring' 'internal/policy internal/health' internal/stream internal/coordination internal/wire; do
	src $dirs | xargs cat | wc -l
done
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
