// Package repro is a pure-Go reproduction of "Benchmarking Deep Learning
// Frameworks: Design Considerations, Metrics and Beyond" (ICDCS 2018).
//
// The library lives under internal/ (core benchmark suite, tensor/NN/optim
// substrates, framework simulacra, device cost models, synthetic datasets,
// adversarial attacks); cmd/dlbench is the experiment CLI and
// cmd/calibrate fits the device cost models. See README.md, DESIGN.md
// and EXPERIMENTS.md.
//
// # Observability
//
// internal/obs is the execution-tracing and runtime-telemetry layer:
// nested spans on the monotonic clock, atomic counters and gauges, and
// streaming duration histograms (p50/p95/p99), threaded through the
// executors, the training loop and the data loaders. The dlbench CLI
// exposes it as -trace FILE (Chrome trace_event JSON for
// chrome://tracing / Perfetto), -telemetry (per-phase summary tables) and
// -pprof ADDR (net/http/pprof). Each RunResult carries a run-scoped
// telemetry snapshot when tracing is active, and the layer is guaranteed
// no-op by default: with no tracer attached the instrumented hot paths
// reduce to nil checks, guarded by an overhead benchmark in internal/obs
// (<2% of a training iteration, measured at roughly 0.01%).
package repro
