# Developer entry points. `make check` is the full pre-merge gate.

GO ?= go

# Benchmark artifact paths. The defaults land in the git-ignored
# .bench_build/, so `make check` or a local sweep never rewrites a committed
# BENCH_PR*.json baseline; writing a new artifact is an explicit override:
#   make bench-kernel BENCH_KERNEL_OUT=BENCH_PR12.json
BENCH_DIR ?= .bench_build
BENCH_WIRE_OUT ?= $(BENCH_DIR)/bench_wire.json
BENCH_KERNEL_OUT ?= $(BENCH_DIR)/bench_kernel.json
BENCH_KERNEL_BASE ?= BENCH_PR9.json
BENCH_QUANT_OUT ?= $(BENCH_DIR)/bench_quant.json
BENCH_TELEM_OUT ?= $(BENCH_DIR)/bench_telem.json

.PHONY: all build vet test race race-hot race-quant chaos bench bench-build bench-json bench-kernel bench-kernel-smoke bench-compare bench-quant bench-quant-smoke bench-telem bench-telem-smoke serve-smoke metrics-smoke cross check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Targeted race pass over the packages with lock-free hot paths (kernel
# worker pool, per-kind stat counters, pipeline stage drivers) — quicker
# than the full `race` sweep when iterating on the engine.
race-hot:
	$(GO) test -race ./internal/tensor ./internal/runtime

# Quantized-path property tests under the race detector: kernel
# blocked-vs-reference bit-identity at par > 1, the int8 codec, and the
# distributed quant pipeline against local RunQ.
race-quant:
	$(GO) test -race -run 'Quant|QCodec|QTensor|QpwTile' ./internal/tensor ./internal/wire ./internal/runtime ./internal/core

# Fault-injection suite under the race detector: worker crashes, hangs,
# flaky connections and panics against the pipeline's recovery machinery
# (deadlines, retry, redial, re-balance). Every test carries a watchdog, so
# a recovery regression fails fast instead of wedging CI.
chaos:
	$(GO) test -race -timeout 300s -run 'Chaos|PanicContained|DeadlineFailsConn|Flaky|RunDegraded|SurvivesWorkerCrash' ./internal/runtime ./internal/wire ./internal/simulate

# Smoke-run the execution-engine benchmarks (single iteration): catches
# bench-only compile errors and allocation regressions without a full sweep.
bench:
	$(GO) test -run NONE -bench 'ConvForwardParallel|RunSegmentAlloc|ConvForwardTile|WireTensorCodec|KernelKinds' -benchtime=1x -benchmem .

# Full wire-layer benchmark sweep (codec MB/s, pipeline tasks/sec across
# overlap settings), written as machine-readable JSON.
bench-json:
	@mkdir -p $(dir $(BENCH_WIRE_OUT))
	$(GO) run ./cmd/picobench -benchjson $(BENCH_WIRE_OUT)

# Full compute-engine sweep (per-layer-kind kernels + whole-model forward
# passes, reference vs cache-blocked), written as machine-readable JSON.
bench-kernel:
	@mkdir -p $(dir $(BENCH_KERNEL_OUT))
	$(GO) run ./cmd/picobench -kernjson $(BENCH_KERNEL_OUT)

# Full int8-vs-float32 sweep (per-kind kernels, whole-model forwards with
# top-1 agreement, stage-boundary payload sizes), written as JSON.
bench-quant:
	@mkdir -p $(dir $(BENCH_QUANT_OUT))
	$(GO) run ./cmd/picobench -quantjson $(BENCH_QUANT_OUT)

# One-iteration pass over the quant sweep: catches kernel dispatch and
# epilogue regressions on every kind without a full timing run.
bench-quant-smoke:
	$(GO) test -run NONE -bench QuantKernelKinds -benchtime=1x .

# One-iteration pass over the float kernel-kind sweep: exercises every
# float32 vector tile (conv/pointwise/depthwise/pool/gap/fc) through the
# blocked dispatch without a full timing run. Anchored so the quant sweep
# does not run twice inside `check`.
bench-kernel-smoke:
	$(GO) test -run NONE -bench '^BenchmarkKernelKinds$$' -benchtime=1x .

# Serving-gateway smoke under the race detector: the full binary path
# (loopback workers, HTTP, micro-batcher, drain) plus the end-to-end
# byte-identity contract between /infer and a local run.
serve-smoke:
	$(GO) test -race -count=1 -run 'PicoserveSmoke|GatewayInferMatchesLocalRun$$' ./cmd/picoserve ./internal/serve

# Full telemetry-overhead guard (closed-loop throughput bare vs
# instrumented, plus record/snapshot micro-costs), written as JSON.
bench-telem:
	@mkdir -p $(dir $(BENCH_TELEM_OUT))
	$(GO) run ./cmd/picobench -telemjson $(BENCH_TELEM_OUT)

# One-iteration pass over the instrumented-vs-bare pipeline benchmark:
# catches hot-path regressions in the telemetry ring without a timing run.
bench-telem-smoke:
	$(GO) test -run NONE -bench RuntimeTelemetryOverhead -benchtime=1x .

# Metrics/SLO smoke under the race detector: boots the full picoserve binary
# with the watcher armed, scrapes GET /metrics for every instrumented series,
# and drives an injected SLO breach through the re-balancer.
metrics-smoke:
	$(GO) test -race -count=1 -run 'PicoserveMetricsSmoke|MetricsEndpoint|SLOBreachTriggersRebalance' ./cmd/picoserve ./internal/serve

# Cross-compile gate for the per-architecture asm surface: the NEON (arm64)
# kernels must assemble and the pure-Go fallback must build on an arch with
# no asm at all. Neither binary runs here — bit-identity on arm64 is
# enforced by the shared scalar contract and the property/fuzz suite.
cross:
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) vet ./...
	GOOS=linux GOARCH=riscv64 $(GO) build ./...

# The serving benchmark (perfbench/) is a nested module with
# `replace pico => ../`, so the root `go build ./...` skips it: vet it and
# run its self-checks against the APIs it compiles against.
bench-build:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test .

# Re-run the kernel sweep and fail if any recorded kernel benchmark
# regressed >10% against the committed BENCH_PR9.json baseline (the newest
# float-kernel sweep, with the SIMD tiles). Kept out of
# `check`: wall-clock comparisons are too noisy for an unconditional gate.
bench-compare:
	$(GO) run ./cmd/picobench -kerncompare $(BENCH_KERNEL_BASE)

check: build vet bench-build cross test race race-quant chaos bench bench-kernel-smoke bench-quant-smoke bench-telem-smoke bench-json serve-smoke metrics-smoke
