// Package device models the paper's execution hardware.
//
// The paper's testbed is an Intel Xeon E5-1620 (CPU runs) and an Nvidia
// GTX 1080 Ti (GPU runs). Neither is available here, and the paper's time
// results are hardware-bound, so this package substitutes a calibrated
// analytical cost model: every training/testing phase is charged
//
//	seconds = FLOPs/throughput + iters·iterOverhead +
//	          samples·sampleOverhead + dispatches·dispatchOverhead (+ startup)
//
// with the constants fitted per (framework, device) against the paper's
// own measurements (Tables VI/VII). The arithmetic itself always runs on
// the host CPU — the model only changes *accounted* time, never results.
// Accuracy and robustness numbers are therefore genuinely computed while
// time numbers are deterministic model outputs comparable to the paper's.
package device

import "fmt"

// Kind distinguishes the two device classes of the paper's testbed.
type Kind int

// Device kinds.
const (
	CPU Kind = iota + 1
	GPU
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case CPU:
		return "CPU"
	case GPU:
		return "GPU"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// CostModel holds the fitted constants for one (framework, device) pair.
// All times are in seconds; throughput is in FLOP/s.
type CostModel struct {
	// Throughput is the effective dense-compute rate the framework
	// sustains on the device (well below peak; it folds in kernel
	// efficiency).
	Throughput float64
	// IterOverhead is charged once per training iteration (solver step,
	// kernel launches amortized per step).
	IterOverhead float64
	// SampleOverhead is charged per sample moved through the input
	// pipeline (decode, host-device transfer).
	SampleOverhead float64
	// DispatchOverhead is charged per layer-operation dispatch; the three
	// executor styles dispatch different counts for the same network.
	DispatchOverhead float64
	// Startup is charged once per phase (graph construction, model
	// (de)serialization, runtime warmup).
	Startup float64
}

// Validate returns an error for non-physical constants.
func (m CostModel) Validate() error {
	if m.Throughput <= 0 {
		return fmt.Errorf("device: throughput %v must be positive", m.Throughput)
	}
	if m.IterOverhead < 0 || m.SampleOverhead < 0 || m.DispatchOverhead < 0 || m.Startup < 0 {
		return fmt.Errorf("device: negative overhead in %+v", m)
	}
	return nil
}

// backwardFactor models backward+update cost relative to forward: the
// backward pass performs roughly two GEMMs per forward GEMM.
const backwardFactor = 2.0

// TrainSeconds models a whole training phase.
//
// flopsPerSample is the *forward* FLOP count per sample; iters is the
// number of optimizer steps; batch the mini-batch size; dispatchesPerIter
// the executor's op-dispatch count per iteration.
func (m CostModel) TrainSeconds(flopsPerSample int64, iters, batch, dispatchesPerIter int) float64 {
	flops := float64(flopsPerSample) * (1 + backwardFactor) * float64(batch) * float64(iters)
	return m.Startup +
		flops/m.Throughput +
		float64(iters)*m.IterOverhead +
		float64(iters*batch)*m.SampleOverhead +
		float64(iters*dispatchesPerIter)*m.DispatchOverhead
}

// TestSeconds models an inference phase over n samples in batches.
func (m CostModel) TestSeconds(flopsPerSample int64, n, batch, dispatchesPerIter int) float64 {
	if batch <= 0 {
		batch = 1
	}
	iters := (n + batch - 1) / batch
	flops := float64(flopsPerSample) * float64(n)
	return m.Startup +
		flops/m.Throughput +
		float64(iters)*m.IterOverhead +
		float64(n)*m.SampleOverhead +
		float64(iters*dispatchesPerIter)*m.DispatchOverhead
}
