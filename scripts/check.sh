#!/usr/bin/env sh
# check.sh — the tier-2 gate.
#
# Tier 1 (the build gate) is `go build ./... && go test ./...`. This script
# adds the checks that guard the invocation hot path: vet, the race detector
# over the packages that share pooled buffers across goroutines (wire,
# channel, netsim) and the packages that fan work out across goroutines
# (transactions' parallel 2PC, coordination's sequencer fan-out, trader's
# concurrent federation), and short benchmark smoke runs so a change that
# breaks the benchmark harness fails here rather than in a measurement
# session.
#
# Run from the repository root:  ./scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== bench module (build + vet) =="
# bench/ is a module of its own, so the root build above does not notice
# when an API removal breaks the benchmark.
(cd bench && go build ./... && go vet ./...)

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

echo "== non-test Go lines (excluding bench/; internal/experiments alone; internal/odp + cmd/odp{node,trader,stat}) =="
# The size figures ROADMAP tracks; printed, not gated.
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 |
	xargs -0 cat | wc -l
find internal/experiments -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
find internal/odp cmd/odpnode cmd/odptrader cmd/odpstat/main.go -name '*.go' ! -name '*_test.go' -print0 |
	xargs -0 cat | wc -l

echo "== race detector (hot-path and fan-out packages) =="
go test -race ./internal/wire/ ./internal/channel/ ./internal/netsim/ \
	./internal/transactions/ ./internal/coordination/ ./internal/trader/ \
	./internal/mgmt/ ./internal/relocator/ ./internal/policy/ \
	./internal/hashring/ ./internal/odp/ ./internal/stream/ \
	./internal/typerepo/ ./internal/health/ ./cmd/odpnode/

echo "== E11 chaos smoke + zero-miss rebalance probe + fleet harness, under the race detector =="
# TestE11ChaosSmoke: a short chaos run asserting >=99% availability after
# the faults heal, a measured time-to-recover, breakers actually opening,
# a traced degraded read, and no leaked goroutines. TestRebalanceProbe:
# the E13 blackout and the E15 crash storm (one function) must see zero
# probe misses — a protocol property, so it holds under the race
# scheduler too. TestFleet*: the harness's own gate, closed loop and gap
# probe, including the warm-up deadline.
go test -race -run 'TestE11|TestRebalanceProbe|TestFleet' ./internal/experiments/

echo "== benchmark smoke + alloc budget (E2 bank invocation) =="
# The session-layer refactor must keep the single-binding hot path
# allocation-lean: the deposit scenario's 20 allocs/op budget gets 5%
# headroom (21). Alloc counts are deterministic, so this gate is stable
# where a wall-clock gate would flake on shared hosts.
go test -run=NONE -bench=E2 -benchtime=200x -benchmem . | tee /tmp/check_e2.out
awk '/bank-deposit|deposit/ && /allocs\/op/ {
		allocs = $(NF-1) + 0
		if (allocs > 21) { printf "E2 deposit alloc budget exceeded: %d > 21 allocs/op\n", allocs; bad = 1 }
		found = 1
	}
	END {
		if (!found) { print "E2 deposit benchmark missing from output"; exit 1 }
		exit bad
	}' /tmp/check_e2.out

echo "== benchmark smoke (replica scaling fan-out) =="
go test -run=NONE -bench=E6_ReplicationScaling -benchtime=5x .

echo "== benchmark smoke (E9 observability overhead) =="
go test -run=NONE -bench=E9 -benchtime=100x -benchmem .

echo "== benchmark smoke (E10 session-invoke hot path) =="
go test -run=NONE -bench=E10 -benchtime=100x -benchmem .

echo "== E10 session multiplexing smoke (256 bindings -> 1 connection, 1 dial) =="
go run ./cmd/odpbench -only e10 -iters 200 | tee /tmp/check_e10.out
awk '/shared\/n=256/ {
		if ($2 + 0 != 1 || $3 + 0 != 1) {
			printf "session multiplexing regressed: shared/n=256 conns=%s dials=%s, want 1/1\n", $2, $3
			exit 1
		}
		found = 1
	}
	END { if (!found) { print "E10 shared/n=256 row missing"; exit 1 } }' /tmp/check_e10.out

echo "== E12 pipelining + batching smoke (batched >= 2x unpipelined at 64 bindings x 8 in-flight) =="
# The pipelined/batched data plane must at least double invocation
# throughput over the unpipelined baseline (per-binding serialisation,
# one write per frame) on real loopback TCP. Wall-clock throughput on a
# shared host is noisy, so the gate takes the best of three runs: a real
# regression (ratio near 1x) can never pass, while one run hit by a load
# spike does not fail the build.
e12_ok=0
for e12_attempt in 1 2 3; do
	go run ./cmd/odpbench -only e12smoke -json > /tmp/check_e12.json
	if awk '
		/"scenario"/   { scen = $2; gsub(/[",]/, "", scen) }
		/"bindings"/   { bindings = $2 + 0 }
		/"inflight"/   { inflight = $2 + 0 }
		/"throughput"/ {
			thr = $2 + 0
			if (bindings == 64 && inflight == 8) {
				if (scen == "tcp/batched") batched = thr
				if (scen == "tcp/serial")  serial  = thr
			}
		}
		END {
			if (batched == 0 || serial == 0) { print "e12: 64x8 rows missing from JSON"; exit 1 }
			printf "e12: batched %.0f calls/s vs unpipelined %.0f calls/s: %.2fx\n", batched, serial, batched / serial
			exit !(batched >= 2 * serial)
		}' /tmp/check_e12.json; then
		e12_ok=1
		break
	fi
	echo "e12 attempt $e12_attempt below 2x; retrying"
done
if [ "$e12_ok" != "1" ]; then
	echo "E12 pipelining gate failed: batched < 2x unpipelined in 3 runs"
	exit 1
fi

echo "== E13 sharding smoke (8-shard >= 3x single-shard; rebalance blackout, 0 misses) =="
# The sharded trader must actually scale: with every shard node behind
# the same fixed-capacity gate, 8 shards have to deliver at least 3x the
# import throughput of 1 (the gate makes this a property of the routing,
# not of the host's core count, but wall-clock is still noisy on shared
# hosts — best of three). The blackout slice is a deterministic protocol
# property and must hold on every run: zero probe misses while the ring
# gains and loses a shard mid-lookup. The binding swarm (>= 1M bindings,
# zero lost lookups) is asserted once, in the E15 block below — E15 runs
# the same E13Swarm function at ten times the size.
e13_ok=0
for e13_attempt in 1 2 3; do
	go run ./cmd/odpbench -only e13smoke -json > /tmp/check_e13.json
	if awk '
		/"scenario"/     { scen = $2; gsub(/[",]/, "", scen) }
		/"shards"/       { shards = $2 + 0 }
		/"throughput"/   { if (scen == "grid") thr[shards] = $2 + 0 }
		/"misses"/       { if (scen == "rebalance-blackout") misses = $2 + 0 }
		/"probes"/       { probes = $2 + 0 }
		END {
			if (thr[1] == 0 || thr[8] == 0) { print "e13: grid rows missing from JSON"; exit 1 }
			printf "e13: 8 shards %.0f imports/s vs 1 shard %.0f: %.2fx; blackout %d probes, %d misses\n", \
				thr[8], thr[1], thr[8] / thr[1], probes, misses
			if (probes == 0)       { print "e13: no blackout probes ran"; exit 1 }
			if (misses != 0)       { print "e13: rebalance blackout misses"; exit 1 }
			exit !(thr[8] >= 3 * thr[1])
		}' /tmp/check_e13.json; then
		e13_ok=1
		break
	fi
	echo "e13 attempt $e13_attempt below 3x; retrying"
done
if [ "$e13_ok" != "1" ]; then
	echo "E13 sharding gate failed: 8 shards < 3x single shard in 3 runs"
	exit 1
fi

echo "== E14 streaming smoke (slow-consumer isolation >= 0.8x; memory ceiling = window) =="
# One slow consumer among 64 credit-windowed streams on one session must
# not drag its siblings down: the one-slow scenario has to keep at least
# 80% of the all-fast fast-stream throughput on loopback TCP (wall-clock,
# so best of three), and — deterministically, every run — the slow
# stream's consumer queue must never exceed its credit window and no
# element may be dropped on type grounds or delivered out of order.
e14_ok=0
for e14_attempt in 1 2 3; do
	go run ./cmd/odpbench -only e14smoke -json > /tmp/check_e14.json
	if awk '
		/"scenario"/        { scen = $2; gsub(/[",]/, "", scen) }
		/"window"/          { window = $2 + 0 }
		/"fast_throughput"/ { thr[scen] = $2 + 0 }
		/"slow_max_queued"/ { maxq[scen] = $2 + 0 }
		/"seq_gaps"/        { gaps += $2 + 0 }
		/"flow_type_errors"/ { typeerr += $2 + 0 }
		END {
			if (thr["all-fast/tcp"] == 0 || thr["one-slow/tcp"] == 0) {
				print "e14: tcp rows missing from JSON"; exit 1
			}
			ratio = thr["one-slow/tcp"] / thr["all-fast/tcp"]
			printf "e14: one-slow %.0f el/s vs all-fast %.0f el/s: %.2fx; slow maxq %d/%d window\n", \
				thr["one-slow/tcp"], thr["all-fast/tcp"], ratio, maxq["one-slow/tcp"], window
			if (maxq["one-slow/tcp"] > window) { print "e14: slow stream queued past its window"; exit 1 }
			if (maxq["one-slow/sim"] > window) { print "e14: slow stream queued past its window (sim)"; exit 1 }
			if (gaps != 0)    { print "e14: FIFO sequence gaps"; exit 1 }
			if (typeerr != 0) { print "e14: flow type errors"; exit 1 }
			exit !(ratio >= 0.8)
		}' /tmp/check_e14.json; then
		e14_ok=1
		break
	fi
	echo "e14 attempt $e14_attempt below 0.8x; retrying"
done
if [ "$e14_ok" != "1" ]; then
	echo "E14 streaming gate failed: one slow consumer dragged siblings below 0.8x in 3 runs"
	exit 1
fi

echo "== E15 de-singleton smoke (replicated typerepo >= 2x gated singleton; 1M swarm, 0 lost; crash-storm rebalance, 0 misses) =="
# The de-singletoned control plane must hold at scale. The typerepo
# authority sits behind a fixed-capacity gate, so the replicated read
# front-end has to beat the singleton by at least 2x as a property of
# where reads are served, not of core count (wall-clock, so best of
# three). The swarm and crash-storm slices are deterministic protocol
# properties and must hold on every run: >=1,000,000 bindings with zero
# lost lookups through the replicated repository, and zero probe misses
# while the ring gains and loses a shard with a chaos-scripted crash of
# one replica-group member mid-rebalance.
e15_ok=0
for e15_attempt in 1 2 3; do
	go run ./cmd/odpbench -only e15smoke -json > /tmp/check_e15.json
	if awk '
		/"scenario"/     { scen = $2; gsub(/[",]/, "", scen) }
		/"throughput"/   {
			if (scen == "typerepo-singleton")  single = $2 + 0
			if (scen == "typerepo-replicated") repl   = $2 + 0
		}
		/"bindings":/    { if (scen == "swarm") bindings = $2 + 0 }
		/"lost_lookups"/ { lost = $2 + 0 }
		/"probes"/       { if (scen == "crash-rebalance") probes = $2 + 0 }
		/"misses"/       { if (scen == "crash-rebalance") misses = $2 + 0 }
		/"crash_events"/ { crashes = $2 + 0 }
		END {
			if (single == 0 || repl == 0) { print "e15: typerepo rows missing from JSON"; exit 1 }
			printf "e15: replicated %.0f imports/s vs gated singleton %.0f: %.1fx; swarm %d bindings, %d lost; crash storm %d probes, %d misses, %d crash(es)\n", \
				repl, single, repl / single, bindings, lost, probes, misses, crashes
			if (bindings < 1000000) { print "e15: swarm fell short of 1M bindings"; exit 1 }
			if (lost != 0)          { print "e15: swarm lost lookups"; exit 1 }
			if (probes == 0)        { print "e15: no crash-storm probes ran"; exit 1 }
			if (crashes == 0)       { print "e15: chaos crash never fired"; exit 1 }
			if (misses != 0)        { print "e15: crash-storm probe misses"; exit 1 }
			exit !(repl >= 2 * single)
		}' /tmp/check_e15.json; then
		e15_ok=1
		break
	fi
	echo "e15 attempt $e15_attempt failed; retrying"
done
if [ "$e15_ok" != "1" ]; then
	echo "E15 de-singleton gate failed in 3 runs"
	exit 1
fi

echo "== E16 self-healing smoke (recovery-on: >=99% availability, 0 lost, every victim rescued; recovery-off degrades) =="
# The self-healing loop must close under the migration storm: with the
# recovery controller on, the mid-storm shard crash and the victim kills
# cost zero lost trader lookups and zero permanently dead objects, every
# victim is rescued, and the failed-over group still runs both replicas;
# aggregate availability has to stay >=99% (wall-clock through a probe
# window, so best of three). The recovery-off control must show the
# degradation is real: dead objects left behind and strictly lower
# availability than the recovered run.
e16_ok=0
for e16_attempt in 1 2 3; do
	go run ./cmd/odpbench -only e16smoke -json > /tmp/check_e16.json
	if awk '
		/"scenario"/       { scen = $2; gsub(/[",]/, "", scen) }
		/"availability"/   { avail[scen] = $2 + 0 }
		/"lost_lookups"/   { if (scen == "recovery-on") lost = $2 + 0 }
		/"dead_objects"/   { dead[scen] = $2 + 0 }
		/"rescues"/        { resc[scen] = $2 + 0 }
		/"group_size"/     { if (scen == "recovery-on") gsize = $2 + 0 }
		/"migrations"/     { if (scen == "recovery-on") migr = $2 + 0 }
		END {
			if (avail["recovery-on"] == 0 || avail["recovery-off"] == 0) {
				print "e16: scenario rows missing from JSON"; exit 1
			}
			printf "e16: recovery-on %.4f avail, %d lost, %d dead, %d rescues, group %d, %d migrations; recovery-off %.4f avail, %d dead\n", \
				avail["recovery-on"], lost, dead["recovery-on"], resc["recovery-on"], gsize, migr, \
				avail["recovery-off"], dead["recovery-off"]
			if (lost != 0)                  { print "e16: recovery-on lost trader lookups"; exit 1 }
			if (dead["recovery-on"] != 0)   { print "e16: recovery-on left dead objects"; exit 1 }
			if (resc["recovery-on"] == 0)   { print "e16: no victim was rescued"; exit 1 }
			if (gsize != 2)                 { print "e16: failed-over group lost a replica"; exit 1 }
			if (migr < 100)                 { print "e16: migration storm fell short"; exit 1 }
			if (dead["recovery-off"] == 0)  { print "e16: recovery-off control shows no dead objects"; exit 1 }
			if (avail["recovery-off"] >= avail["recovery-on"]) {
				print "e16: recovery-off control not degraded"; exit 1
			}
			exit !(avail["recovery-on"] >= 0.99)
		}' /tmp/check_e16.json; then
		e16_ok=1
		break
	fi
	echo "e16 attempt $e16_attempt failed; retrying"
done
if [ "$e16_ok" != "1" ]; then
	echo "E16 self-healing gate failed in 3 runs"
	exit 1
fi

# The disabled-instrumentation budget: an uninstrumented invocation must
# stay within 5% of the E4 replay-binder baseline (the identical channel
# configuration, built before mgmt existed). The comparison needs quiet,
# repeated runs, so it is opt-in:  MGMT_OVERHEAD_CHECK=1 ./scripts/check.sh
if [ "${MGMT_OVERHEAD_CHECK:-0}" = "1" ]; then
	echo "== disabled-instrumentation overhead budget (<= 5%) =="
	# Three interleaved processes, each running both benchmarks
	# back-to-back; compare the best run of each so a load spike on a
	# shared host biases neither side.
	{
		for _ in 1 2 3; do
			go test -run=NONE \
				-bench='E4_Channel/replay-binder$|E9_Observability/invoke/instrumentation-off$' \
				-benchtime=1s .
		done
	} | awk '
		/replay-binder/       { if (base == 0 || $3 < base) base = $3; nb++ }
		/instrumentation-off/ { if (off  == 0 || $3 < off)  off  = $3; no++ }
		END {
			if (nb == 0 || no == 0) { print "overhead check: benchmarks missing"; exit 1 }
			pct = (off - base) / base * 100
			printf "replay-binder %.0f ns/op, instrumentation-off %.0f ns/op (best of %d), overhead %.1f%%\n", base, off, nb, pct
			if (pct > 5) { print "overhead budget exceeded"; exit 1 }
		}'
fi

echo "check.sh: all gates passed"
