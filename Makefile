# make check reproduces the CI gate (.github/workflows/ci.yml) locally.

GO ?= go

.PHONY: check fmt vet build falcon-vet falcon-vet-diff vet-fix test examples perfbench race bench scale

check: fmt vet build falcon-vet test examples perfbench race
	@echo "all gates passed"

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# falcon-vet runs the full suite on the parallel DAG scheduler with the
# content-addressed result cache: a warm no-change run skips
# type-checking entirely. falcon-vet-diff only re-analyzes packages with
# .go files changed since origin/main (plus reverse dependents) — the
# pre-commit-speed variant.
falcon-vet:
	$(GO) run ./cmd/falcon-vet -cache .falcon-vet-cache ./...

falcon-vet-diff:
	$(GO) run ./cmd/falcon-vet -cache .falcon-vet-cache -diff origin/main ./...

# vet-fix applies every suggested fix (stale allow-directive removal,
# errcheck explicit discards, sort.Slice modernization, frozen-map
# clone-then-swap rewrites) in place, then reports whatever is left for a
# human.
vet-fix:
	$(GO) run ./cmd/falcon-vet -fix ./...

test:
	$(GO) test ./...

# examples runs every examples/* program end to end rather than only
# compiling it, so a model-format or API change that breaks one at run
# time fails the gate.
examples:
	@set -e; for d in examples/*/; do echo "== $$d"; $(GO) run "./$$d"; done

# perfbench builds, vets and tests the wall-clock benchmark module. It is a
# module of its own (replace falcon => ../), so the root ./... never
# compiles it, yet it calls the feature, model and serve APIs.
perfbench:
	cd _perfbench && $(GO) build -o /dev/null ./... && $(GO) vet ./... && $(GO) test ./...

# The race gate also runs the vet engine's parallel scheduler and cache
# under the detector: the serial/parallel/cached byte-identity tests
# exercise every cross-task edge (fact shards, lock-edge streams,
# diagnostics sinks).
race:
	$(GO) test -race ./internal/service/... ./internal/mapreduce/... ./internal/core/... ./internal/serve/...
	$(GO) test -race -run 'TestParallelByteIdentical|TestVetEquality|TestSiblingLockCycle|TestCacheInvalidationMatrix|TestDiffMode' ./internal/analysis/

# bench records the executor worker-pool benchmark (speedup needs >1 CPU),
# the blocking hot-path benchmarks (bit-parallel kernels vs the sorted-merge
# ID baseline vs the retired string reference path, plus the simfn
# set/edit-distance kernel microbenchmarks), the falcon-vet whole-tree
# benchmark (the pre-flow suite, the flow-sensitive layer, the
# publish-then-freeze layer, the out-of-core layer, and all fifteen
# analyzers over the module, loading amortized), and the serving
# point-lookup benchmark (QPS, p99 latency, allocs per request).
bench:
	$(GO) test -run '^$$' -bench BenchmarkExecutorWorkers -benchmem -json \
		./internal/mapreduce/ > BENCH_executor.json
	@echo "wrote BENCH_executor.json"
	$(GO) test -run '^$$' -bench 'BenchmarkBlocking$$|BenchmarkVectorize$$|BenchmarkPrefixProbe$$|BenchmarkJaccardKernels$$|BenchmarkEditDistanceKernels$$' \
		-benchmem -json ./internal/block/ ./internal/feature/ ./internal/index/ ./internal/simfn/ > BENCH_blocking.json
	@echo "wrote BENCH_blocking.json"
	$(GO) test -run '^$$' -bench 'BenchmarkVetTree$$' -benchmem -json \
		./internal/analysis/ > BENCH_vet.json
	@echo "wrote BENCH_vet.json"
	$(GO) test -run '^$$' -bench 'BenchmarkServeMatchOne$$' -benchmem -json \
		./internal/serve/ > BENCH_serve.json
	@echo "wrote BENCH_serve.json"

# scale runs the CI-optional out-of-core long gate: a datagen 1M×1M Songs
# workload executed in-memory and spilled (results must be byte-identical),
# then re-run under an enforced GOMEMLIMIT below the in-memory path's
# measured heap peak. Records makespan + peak memory to BENCH_scale.json.
scale:
	FALCON_SCALE=1 $(GO) test -run 'TestScaleSongs1M$$' -v -timeout 45m \
		./internal/mapreduce/
	@echo "wrote BENCH_scale.json"
