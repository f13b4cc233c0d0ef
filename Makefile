# Test tiers. tier1 is the gate every change must pass; tier2 adds the
# race detector over every package and a fresh (uncached) run of the
# cross-strategy differential suite. tier2-torture is the
# heavyweight stress pass: the full task corpus with a collection before
# every allocation and the post-collection heap verifier on, under the
# race detector. tier2-bench is the benchmark-harness race smoke: the
# pause harness and the fast-path suites, which exercise the plan and
# site caches.
# tier2-nursery is the generational stress pass: the nursery differential
# suite and write-barrier fuzz under the race detector, plus the nursery
# telemetry corpus with torture collection and the heap verifier on.
# tier2-tlab is the allocation-buffer pass: the TLAB unit and interleaving
# fuzz suites plus the cross-strategy allocation-equivalence differential
# suite under the race detector, and the telemetry corpus with buffers,
# torture collection and the heap verifier on. tier2-scenario is the
# declarative-matrix pass: the scenario DSL suites (golden diagnostics,
# compiler differential, fuzz seeds) under the race detector, plus the
# torture-mode scenario from the committed corpus — torture and the heap
# verifier requested through the DSL's faults block rather than flags.
# tier2-serve is the overload pass: the serve-harness suites (admission,
# shedding, backoff, ladder), the per-task budget suites, and the combined
# nursery+TLAB recovery-ladder test under the race detector, plus the
# committed overload-torture scenario (arrivals, shedding and the faults
# block's torture/injection knobs all through the DSL).
# tier2-concurrent is the incremental-marking pass: the concurrent
# differential, interleaving-fuzz, watchdog and validation suites under
# the race detector, plus the committed concurrent-torture scenario —
# gc_concurrent cycling continuously in a tight heap with the verifier
# on, and gc_concurrent crossed with torture so every forced collection
# aborts an in-flight cycle. tier2-shard is the sharded-heap pass: the
# shard differential, interleaving-fuzz, gating and OOM-ladder suites
# plus the sharded overload-ledger test under the race detector, and the
# committed shard-torture scenario — per-shard minors with the verifier
# walking the whole heap after each, and injected failures climbing the
# global ladder with the nursery split four ways. tier2-liveness is the
# heap-liveness pass: the differential projection suite (retained-set
# subset via signature projection, poison traps, the 32-seed mode-matrix
# fuzz) under the race detector, plus the committed liveness-torture
# scenario — pruning crossed with torture and the verifier, and pruning
# pushed out of its envelope over sharded nurseries with injected
# failures so the counted-degrade path runs under stress too.

.PHONY: tier1 tier2 tier2-torture tier2-bench tier2-nursery tier2-tlab tier2-scenario tier2-serve tier2-concurrent tier2-shard tier2-liveness bench bench-json fuzz fuzz-scenario

# perfbench/ is its own module (the repository benchmark), so the root
# commands never compile it; tier1 vets and tests it separately.
tier1:
	go build ./...
	go vet ./...
	go test ./...
	cd perfbench && go vet ./... && go test ./...

tier2: tier1 tier2-nursery tier2-tlab tier2-scenario tier2-serve tier2-concurrent tier2-shard tier2-liveness
	go test -race ./...
	go test -run TestDifferential -count=1 ./internal/pipeline/

tier2-nursery:
	go test -race -run 'TestDifferentialNursery|TestNursery' -count=1 -timeout 30m ./internal/pipeline/
	go run -race ./cmd/tfbench -gc-nursery 256 -gc-torture -verify-heap telemetry >/dev/null

tier2-tlab:
	go test -race -run 'TestTLAB|TestDifferentialTLAB' -count=1 -timeout 30m ./internal/heap/ ./internal/pipeline/
	go run -race ./cmd/tfbench -tlab 64 -gc-torture -verify-heap telemetry >/dev/null

tier2-scenario:
	go test -race -run TestScenario -count=1 -timeout 30m ./internal/scenario/
	go run -race ./cmd/tfbench -scenario testdata/scenarios/torture.tfs >/dev/null

tier2-serve:
	go test -race -count=1 -timeout 30m ./internal/serve/ ./cmd/tfserve/
	go test -race -run 'TestBudget|TestLadderOutcomeSplit|TestNurseryTLABLadder' -count=1 -timeout 30m ./internal/pipeline/
	go run -race ./cmd/tfbench -scenario testdata/scenarios/overload-torture.tfs >/dev/null

tier2-concurrent:
	go test -race -run 'TestDifferentialConcurrent|TestConcurrent' -count=1 -timeout 30m ./internal/pipeline/
	go run -race ./cmd/tfbench -scenario testdata/scenarios/concurrent-torture.tfs >/dev/null

tier2-shard:
	go test -race -run 'TestDifferentialShards|TestShard' -count=1 -timeout 30m ./internal/pipeline/
	go test -race -run TestShardedOverloadLedgerBalances -count=1 -timeout 30m ./internal/serve/
	go run -race ./cmd/tfbench -scenario testdata/scenarios/shard-torture.tfs >/dev/null

tier2-liveness:
	go test -race -run 'TestHeapLiveness|TestPoisonTraps' -count=1 -timeout 30m ./internal/pipeline/
	go run -race ./cmd/tfbench -scenario testdata/scenarios/liveness-torture.tfs >/dev/null

tier2-torture: tier1
	GC_TORTURE_FULL=1 go test -race -run 'TestTorture|TestRecoveryLadder' -count=1 -timeout 30m ./internal/pipeline/

tier2-bench: tier1
	go test -race -run 'TestBenchSnapshot|TestFastPath' -count=1 ./internal/experiments/ ./internal/gc/ ./internal/pipeline/

# Go micro-benchmarks (slot dedupe, collection pause, E1-E8 mirrors).
bench:
	go test -bench=. -benchmem -run xxx . ./internal/gc/

# Regenerate the newest committed benchmark snapshot (schema
# tagfree-bench/v1); fixed repeats so snapshots are comparable across the
# repo's history. Override the output for a new trajectory point:
#   make bench-json BENCH_OUT=BENCH_NEW.json
BENCH_OUT ?= BENCH_PR10.json
bench-json:
	go run ./cmd/tfbench -repeats 3 -bench-json $(BENCH_OUT)

# Budgeted fuzzing of the mark/sweep free-list invariants.
fuzz:
	go test ./internal/heap/ -fuzz FuzzMarkSweepFreeList -fuzztime 30s

# Budgeted fuzzing of the scenario lexer/parser/compiler (no panics,
# every diagnostic positioned).
fuzz-scenario:
	go test ./internal/scenario/ -fuzz FuzzScenarioParse -fuzztime 30s
