# Tier-1 gate for this repository. `make check` is what CI (and every PR)
# must keep green: static checks, a full build, the race-enabled test
# suite, the observability overhead guard that proves the disabled
# tracer costs <2% of a training iteration, the chaos suite that
# exercises fault injection, divergence recovery, panic conversion and
# checkpoint/resume under the race detector, and short fuzz runs of
# the fault grammar, of journal replay and of the POST /jobs body.

GO ?= go

.PHONY: check vet build test race kernels obs-overhead chaos fuzz infer-gate serve-smoke perfbench-check queue-386 microbench trace-demo clean

check: vet build test race kernels obs-overhead chaos fuzz infer-gate serve-smoke perfbench-check queue-386

# go vet, then gofmt over every Go file of the root module and
# perfbench/ (dot directories such as .bench_build are skipped): any file
# gofmt would change fails the target.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(find . -path './.*' -prune -o -name '*.go' -print)); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

# The suite runs twice: once plain (the tier-1 contract, including the
# training-heavy integration tests) and once under the race detector for
# every package except internal/core — its full training matrix runs
# ~25x slower under tsan and cannot fit a sane timeout, so its
# concurrency-sensitive paths get race coverage from the bounded `chaos`
# subset below instead.
test:
	$(GO) test -timeout 30m ./...
	$(GO) test -race -timeout 30m $$($(GO) list ./... | grep -v '/internal/core$$')

# Focused race pass over the kernel/layer/executor hot path and the
# serve daemon: the worker pool, arena, fused epilogues, sharded
# backward, and the server's admission/queue/drain machinery are where
# concurrency lives, so these get an explicit -count=1 run (the broad
# `test` race pass above may serve cached results).
race:
	$(GO) test -race -count=1 -timeout 15m ./internal/tensor/... ./internal/nn/... ./internal/engine/... ./internal/server/...

# Differential kernel tests, run fresh: every float GEMM micro-kernel
# the host runs (AVX-512, AVX2, portable) against the scalar reference in
# gemm_ref_test.go — bit-identical on finite inputs, Inf/NaN in the same
# positions — plus worker-count independence, the lowering fast paths,
# the Conv2D/Dense layers (fused ReLU epilogue included) and, in
# internal/nn, the Activation, Pool2D and LRN layers against their
# scalar references in layer_ref_test.go; every int8 GEMM kernel (VNNI,
# AVX2, portable) against the int32 reference loop; and, in
# internal/engine, the int8 column's logits against their golden
# digests. The second run builds with -tags noasm, which leaves the
# amd64 assembly out, so the portable kernels are the only path and must
# pass on their own.
kernels:
	$(GO) test -count=1 -run 'Kernel|Workers|Lowering|LayersMatch|GemmInt8' ./internal/tensor/ ./internal/nn/ ./internal/engine/
	$(GO) test -count=1 -tags noasm -run 'Kernel|Workers|Lowering|LayersMatch|GemmInt8' ./internal/tensor/ ./internal/nn/ ./internal/engine/

# The acceptance guard from internal/obs: the nil-tracer fast path must
# stay under 2% of a training iteration, and the disabled-primitive
# benchmarks (including the nil resource-monitor reads) document the
# per-op cost.
obs-overhead:
	$(GO) test ./internal/obs/ -count=1 -run TestDisabledTracerOverheadUnderTwoPercent -v
	$(GO) test ./internal/obs/ -count=1 -run '^$$' -bench 'BenchmarkDisabled' -benchtime=100ms

# Fault-injection and recovery suite under the race detector: the chaos
# matrix (NaN + op faults with per-cell isolation), checkpoint/resume
# determinism, executor panic conversion, cancellation, and the parser/
# injector/checkpoint unit tests.
chaos:
	$(GO) test -race -count=1 -timeout 20m \
		-run 'Chaos|Fault|Inject|Panic|Resume|Cancel|Checkpoint|Guard|Diverge|Recover|Backoff|Plan' \
		./internal/resilience/ ./internal/core/ ./internal/engine/ ./internal/tensor/

# Native fuzzing, 10 s per target, of what the daemon and CLI read from
# outside: the -faults grammar, which POST /jobs accepts from the
# network (no input may panic ParsePlan, and every plan it accepts must
# hold the invariants FuzzParsePlan checks); journal replay, which
# reads a file a crash may have torn (FuzzReplayJournal: no panic or
# error, valid and ordered pending jobs, compaction changes nothing);
# then the POST /jobs body (FuzzJobSpec: no panic in the decode or in
# JobSpec.Validate, an accepted body is exactly one JSON value, and a
# spec that validates survives marshal, decode and Validate unchanged);
# then the checkpoint file -resume reads (FuzzDecodeCheckpoint: every
# error wraps ErrCheckpoint, re-encoding is stable, and the weights
# restore into a fixed network or are rejected). The seed corpora are in
# testdata/fuzz/<target> of each package; go test writes any failing
# input there too.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParsePlan$$' -fuzztime 10s ./internal/resilience/
	$(GO) test -run '^$$' -fuzz '^FuzzReplayJournal$$' -fuzztime 10s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzJobSpec$$' -fuzztime 10s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCheckpoint$$' -fuzztime 10s ./internal/resilience/

# Inference-workload gates, run fresh (-count=1): the quantization
# property tests (round-trip bound, saturation, int8 GEMM tolerance),
# the residual parity tests (gradcheck + bit-identical training curves
# across executor styles), the inference sweep and its int8 acceptance
# gate (>=1.5x float batch-1 throughput within 1pp accuracy), and the
# serve-daemon inference job admission/end-to-end tests.
# -p 1 serializes the packages: the throughput gate times real kernels,
# and co-scheduled training tests from sibling packages would starve it.
infer-gate:
	$(GO) test -count=1 -p 1 -timeout 15m \
		-run 'Infer|Quant|Int8|Residual|ResNet|GradCheck' \
		./internal/tensor/ ./internal/nn/ ./internal/engine/ ./internal/framework/ \
		./internal/core/ ./internal/server/

# End-to-end daemon smoke: start `dlbench serve` on port 0 with a
# journal, push a small loadgen burst through it (the accounting
# invariant — completed/failed/explicitly-rejected, never lost — is
# loadgen's exit code), then SIGTERM and require a clean drain.
serve-smoke:
	GO="$(GO)" sh scripts/serve_smoke.sh

# The benchmark in perfbench/ (run with `bash perfbench/run.sh`) is its
# own Go module, so `build` and `test` above never compile it, yet it
# calls exported code from most internal packages. Vet it and run its
# unit tests so deleting code it uses fails here; its smoke test skips
# under -short.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

# The serve queue's shard routing where int is 32 bits: a job key whose
# hash exceeds 2^31 must still land on a real shard.
queue-386:
	GOARCH=386 $(GO) test -count=1 -run TestQueue ./internal/server/

# Go microbenchmarks (one per paper table/figure plus ablations).
microbench:
	$(GO) test -bench=. -benchmem

# Produce a small Chrome trace to eyeball in chrome://tracing.
trace-demo:
	$(GO) run ./cmd/dlbench -scale test -quiet -trace trace.json -telemetry fig1

clean:
	rm -f trace.json
