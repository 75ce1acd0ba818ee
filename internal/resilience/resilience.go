// Package resilience makes long benchmark sweeps survivable: it provides
// the retry policy, divergence guard, deterministic fault-injection
// harness and checkpoint store the suite layer composes into
// fault-tolerant training.
//
// The package is deliberately mechanism-only. It knows nothing about
// experiments or frameworks; the core package decides when to check, when
// to checkpoint and how to roll back. Everything here follows the obs
// package's nil-discipline: a nil *Injector (faults disabled) and a zero
// Policy (recovery disabled) reduce the hot-path cost to a pointer test,
// so runs that do not opt in pay nothing.
package resilience

import (
	"errors"
	"time"
)

// Sentinel errors. Concrete error values wrap these so callers classify
// failures with errors.Is without depending on message text.
var (
	// ErrDiverged marks a training run whose loss or gradients went
	// NaN/Inf; see DivergenceError for the offending quantity.
	ErrDiverged = errors.New("resilience: training diverged")
	// ErrRetriesExhausted marks a run that kept failing after the policy's
	// full retry budget.
	ErrRetriesExhausted = errors.New("resilience: retry budget exhausted")
	// ErrInjected marks an error produced by the fault-injection harness
	// (recoverable op faults and batch corruption).
	ErrInjected = errors.New("resilience: injected fault")
	// ErrInjectedCrash marks a simulated process kill. Unlike ErrInjected
	// it must NOT be retried in-process: it exists to test that a matrix
	// can be resumed from on-disk checkpoints after losing the process.
	ErrInjectedCrash = errors.New("resilience: injected crash")
)

// Obs counter names incremented by the suite's resilient training loop.
// They flow into per-run telemetry deltas like every other counter.
const (
	// CounterRetries counts training attempts beyond the first.
	CounterRetries = "resilience.retries"
	// CounterRecoveries counts runs that failed at least once and then
	// completed within the retry budget.
	CounterRecoveries = "resilience.recoveries"
	// CounterDivergences counts NaN/Inf detections by the guard.
	CounterDivergences = "resilience.divergences"
	// CounterFaultsInjected counts harness fault firings.
	CounterFaultsInjected = "resilience.faults.injected"
	// CounterCellsFailed counts matrix cells reported failed.
	CounterCellsFailed = "resilience.cells.failed"
	// CounterPanics counts panics recovered from executor dispatch.
	CounterPanics = "resilience.panics"
	// CounterRollbacks counts checkpoint rollbacks.
	CounterRollbacks = "resilience.rollbacks"
	// CounterCheckpoints counts checkpoint captures.
	CounterCheckpoints = "resilience.checkpoints"
	// CounterResumes counts runs resumed from an on-disk checkpoint.
	CounterResumes = "resilience.resumes"
)

// Policy configures fault-tolerant training. The zero value disables
// recovery entirely (no guard, no retries, no periodic checkpoints),
// preserving the legacy fail-open behavior where a diverged run trains to
// completion and is reported via its Converged flag.
type Policy struct {
	// MaxRetries is the number of recovery attempts after the first
	// failure; 0 disables the resilience layer.
	MaxRetries int
}

// Enabled reports whether the policy activates the resilience layer.
func (p Policy) Enabled() bool { return p.MaxRetries > 0 }

// The recovery schedule of an enabled policy. Retry attempt n (0-based)
// waits a jittered BackoffBase·2ⁿ capped at BackoffMax, and a divergence
// retry multiplies the learning rate by LRDecay (other retries keep it).
const (
	BackoffBase = 10 * time.Millisecond
	BackoffMax  = time.Second
	LRDecay     = 0.5
)

// CheckpointPeriod is the checkpoint period, in iterations, for a run of
// totalIters: a quarter of the run, at least 1.
func CheckpointPeriod(totalIters int) int {
	return max(totalIters/4, 1)
}
