GO ?= go

.PHONY: all build test race bench bench-all bench-check bench-net bench-net-check chaos differential metric-lint apicheck apicheck-update vet fmt

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The experiment engine fans jobs out over goroutines; the race build
# exercises every parallel path (worker pool, sweep, ablations, study).
race:
	$(GO) test -race ./...

# Scheduler and sweep benchmarks with a machine-readable report:
# the raw log goes to BENCH_sched.txt, tools/benchjson converts it to
# BENCH_sched.json (ns/op, B/op, allocs/op per benchmark).
bench:
	$(GO) test -run '^$$' -bench '^Benchmark(GreedyAllocate|OptimalAllocate|Sweep|FederatedSnapshot|RecorderSteadyState)' \
		-benchmem . | tee BENCH_sched.txt
	$(GO) run ./tools/benchjson -o BENCH_sched.json BENCH_sched.txt

# Compare BenchmarkSweepSerial vs BenchmarkSweepParallel for the
# engine's speedup on this machine, plus every other benchmark.
bench-all:
	$(GO) test -run '^$$' -bench . -benchmem .

# Run the sched/sweep benchmarks fresh and compare against the
# committed BENCH_sched.json baseline; tools/benchdiff fails on any
# >25% ns/op regression. Shared CI machines are noisy, so the CI step
# running this is advisory (continue-on-error), but a local run before
# touching the greedy allocator or the engine is the cheap way to catch
# a real slowdown.
# The alloc gate allows a few allocations of slack: the solver and
# sweep benchmarks allocate data-dependently (map growth, pool
# warm-up), drifting by single digits run to run, while the greedy
# steady-state contract (1 alloc/op, down from 43) still has no room
# to regress meaningfully.
bench-check:
	$(GO) test -run '^$$' -bench '^Benchmark(GreedyAllocate|OptimalAllocate|Sweep|FederatedSnapshot|RecorderSteadyState)' \
		-benchmem . > /tmp/bench-check.txt
	$(GO) run ./tools/benchjson -o /tmp/bench-check.json /tmp/bench-check.txt
	$(GO) run ./tools/benchdiff -baseline BENCH_sched.json -current /tmp/bench-check.json -alloc-slack 8

# Wire-path benchmarks: batch-frame encode/decode per codec plus full
# sharded cluster days on the codec × batch-size axes. The raw log goes
# to BENCH_net.txt and tools/benchjson converts it — including the
# custom frames/op and wireB/op ReportMetric series — into the
# committed BENCH_net.json baseline.
bench-net:
	$(GO) test ./internal/netproto -run '^$$' \
		-bench '^Benchmark(BatchEncode|BatchDecode|ClusterDay)' \
		-benchmem | tee BENCH_net.txt
	$(GO) run ./tools/benchjson -o BENCH_net.json BENCH_net.txt

# Diff fresh wire benchmarks against the committed BENCH_net.json.
# Beyond the usual ns/op and allocs gates, the bytes gate catches codec
# bloat (B/op) and the extra gate catches framing regressions: frames/op
# is deterministic for a fixed population, so even the tight 5% bound
# only trips when batching actually degrades.
bench-net-check:
	$(GO) test ./internal/netproto -run '^$$' \
		-bench '^Benchmark(BatchEncode|BatchDecode|ClusterDay)' \
		-benchmem > /tmp/bench-net.txt
	$(GO) run ./tools/benchjson -o /tmp/bench-net.json /tmp/bench-net.txt
	$(GO) run ./tools/benchdiff -baseline BENCH_net.json -current /tmp/bench-net.json \
		-alloc-slack 8 -bytes-threshold 25 -extra-threshold 5

# The fault-tolerance acceptance suite: chaos tests (deterministic
# fault injection, session resumption, degraded-day settlement, retry
# jitter, and the replica center-kill matrix — TestChaosReplica* kills
# the leader in every settlement phase including between ledger append
# and commit) plus a short fuzz pass over the wire codec, which is the
# surface every injected fault ultimately exercises, over the audit
# ledger's encoder against json.Marshal (FuzzLedgerEntryAppendJSON), over
# the day machine's phase inputs (FuzzDayMachine), and over the debug-bundle
# reader enkidebug runs on bundles from outside (FuzzReadBundle; its
# kilobyte seeds would spend the run in the minimizer, so its minimizer
# takes one step). The race pass runs
# the cluster suite repeatedly because every worker borrows the shard
# links' pooled message slots, so a slot shared between two running
# shard days would show up there, as would a Join during a running day
# that wrote into a shard's block of the membership
# (TestClusterJoinDuringDay); it runs the replica kill matrix
# repeatedly because a takeover replays a day on peer-connection and
# agent goroutines that a dead leader may still be closing. It runs the
# trace and ledger determinism tests repeatedly because they read an
# agent's spans once its History() shows the day's payment, which holds
# only while the agent publishes the payment last. It runs the cluster's
# steady-state allocation gates repeatedly at 1, 2 and 4 processors,
# because how the workers overlap their shard days, and so which storage
# a warm day reuses, depends on the processor count. It runs the ledger
# audit tests of the three tools that judge a ledger through
# mechanism.LedgerEntry.Audit (enkitrace, enkidebug, enkiops): a degraded
# day and a surviving replica's ledger audit clean, and a tampered line
# fails each tool's audit.
chaos:
	$(GO) test ./internal/netproto -count=1 \
		-run 'Chaos|Fault|Retry|Backoff|Resume|SessionToken|ContextCancel'
	$(GO) test ./internal/netproto -race -count=10 \
		-run 'TestCluster|TestChaosFederatedSnapshotDegradedShard|TestChaosReplica|TestDifferentialTopologies|TestTrace|TestLedgerDeterministic'
	$(GO) test ./internal/netproto -count=10 -cpu 1,2,4 -run SteadyStateAllocs
	$(GO) test ./cmd/enkitrace ./cmd/enkidebug ./cmd/enkiops -count=1 -run 'Degraded|SurvivingReplica|Audit'
	$(GO) test ./internal/netproto -run '^$$' -fuzz FuzzReadBatch -fuzztime 10s
	$(GO) test ./internal/netproto -run '^$$' -fuzz FuzzRoundTrip -fuzztime 10s
	$(GO) test ./internal/netproto -run '^$$' -fuzz FuzzDecodeBatch -fuzztime 10s
	$(GO) test ./internal/netproto -run '^$$' -fuzz FuzzCodecDifferential -fuzztime 10s
	$(GO) test ./internal/mechanism -run '^$$' -fuzz FuzzLedgerEntryAppendJSON -fuzztime 10s
	$(GO) test ./internal/settle -run '^$$' -fuzz FuzzDayMachine -fuzztime 10s
	$(GO) test ./internal/obs -run '^$$' -fuzz FuzzReadBundle -fuzztime 10s -fuzzminimizetime 1x

# The differential suites: the day machine settling bit-identically in
# every topology that drives it (sim, cluster shard, TCP center, replica
# set across leader kills), the golden digests pinning cluster and
# center output across builds, and sim against a cluster and a TCP
# center, all under the race detector; then the
# allocation-engine acceptance suite: the rewritten greedy and
# branch-and-bound engines against the retained seed implementations
# over the seeded instance corpus, up to 2,000 households and on both
# sides of the order's radix-sort cutoff, the radix and comparison sorts
# against each other, the prefix-sum Eq. 4 against the per-hour sum bit
# for bit, the solver property tests (bound validity, incumbent
# monotonicity, worker bit-identity) under the race detector, and short
# fuzz passes over the fuzz-derived greedy corpus;
# then the extensions on the one settlement core: the appliance
# allocator (sched.Greedy.PlaceAll) against its retained pre-merge
# implementation over 3,000 seeded neighbourhoods, and every settlement
# entry point (the day machine, mechanism.Day.Validate,
# appliances.Settle, coalition.Settle) rejecting the same consumptions.
differential:
	$(GO) test ./internal/netproto -count=1 -race -run 'TestDifferential|GoldenDigests|TestClusterMatchesSim'
	$(GO) test ./internal/sim -count=1 -race -run TestSimMatchesNetworkCenter
	$(GO) test ./internal/sched -count=1 -run 'Differential|TestRadixSortMatchesComparisonSort'
	$(GO) test ./internal/mechanism -count=1 -run 'TestFlexibilityScoresIntoMatchesPerHourSum'
	$(GO) test ./internal/solver -count=1 -race \
		-run 'Differential|WorkersBitIdentical|NeverWorseThanIncumbent|LowerBoundBelowOptimum|SymCorrect'
	$(GO) test ./internal/sched -run '^$$' -fuzz 'FuzzGreedyAllocate$$' -fuzztime 10s
	$(GO) test ./internal/sched -run '^$$' -fuzz FuzzGreedyAllocateRNG -fuzztime 10s
	$(GO) test ./internal/appliances -count=1 -run 'Differential'
	$(GO) test ./internal/core -count=1 -run 'TestConsumptionRuleAtEveryEntryPoint'

# Metric names must come from the constants in internal/obs/names.go;
# a string-literal registration anywhere else bypasses the inventory
# DESIGN.md documents, so CI rejects it. Span names follow the same
# rule: Start/StartChild take the name first, StartTrace/StartRemote
# take it after the trace context, so both literal shapes are matched.
metric-lint:
	@if grep -rn --include='*.go' --exclude-dir=obs -E '\.(Counter|Gauge|Histogram)\("' . ; then \
		echo 'metric-lint: register metrics via the internal/obs name constants'; exit 1; \
	else \
		echo 'metric-lint: ok'; \
	fi
	@if grep -rn --include='*.go' --exclude-dir=obs -E '\.(Start|StartChild)\("|StartSpan\("|\.(StartTrace|StartRemote)\([^,)]*,[[:space:]]*"' . ; then \
		echo 'metric-lint: name spans via the internal/obs Span* constants'; exit 1; \
	else \
		echo 'metric-lint: span names ok'; \
	fi
	@missing=0; \
	for name in $$(grep -oE '"enki_[a-z_]+"' internal/obs/names.go | tr -d '"'); do \
		if ! grep -q "$$name" DESIGN.md; then \
			echo "metric-lint: $$name is in internal/obs/names.go but undocumented in DESIGN.md"; \
			missing=1; \
		fi; \
	done; \
	if [ $$missing -ne 0 ]; then exit 1; fi; \
	echo 'metric-lint: DESIGN.md inventory ok'

# The v1 API freeze: the exported surface of the net package must match
# the committed net/api.txt golden. Changing the surface is allowed but
# deliberate — regenerate the golden in the same commit so the diff
# shows exactly which symbols moved.
apicheck:
	$(GO) run ./tools/apicheck

apicheck-update:
	$(GO) run ./tools/apicheck -update

vet:
	$(GO) vet ./...

# Fails when any file is not gofmt-formatted, listing the offenders.
fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "$$files"; echo 'fmt: run gofmt -w on the files above'; exit 1; \
	fi
