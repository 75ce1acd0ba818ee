// Package core implements the paper's contribution: the DLBench benchmark
// suite. It composes the substrates — synthetic datasets, the three
// framework profiles, their executors and device cost models, and the
// adversarial attacks — into the experiment matrix of the paper's
// Section III:
//
//   - baseline runs (each framework's own defaults; Figures 1-2),
//   - dataset-dependent default transfer (Figures 3-5),
//   - framework-dependent default transfer (Figures 6-7, Tables VI-VII),
//   - adversarial robustness (Figures 8-9, Tables VIII-IX).
//
// Accuracy, convergence and robustness results are genuinely computed by
// training the framework simulacra on synthetic data; times are reported
// both as calibrated cost-model seconds at paper scale (comparable to the
// paper's testbed numbers) and as measured wall seconds at reproduction
// scale.
package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/framework"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// RunSpec identifies one cell of the configuration matrix.
type RunSpec struct {
	// Framework executes the run (engine style, solver traits,
	// regularizer type).
	Framework framework.ID
	// SettingsFW and SettingsDS name the default setting used: the
	// architecture, hyperparameters and initialization of SettingsFW's
	// defaults for SettingsDS. A baseline run has SettingsFW == Framework
	// and SettingsDS == Data.
	SettingsFW framework.ID
	SettingsDS framework.DatasetID
	// Data is the dataset actually trained and tested on.
	Data framework.DatasetID
	// Device selects the modeled device (and, for Torch on CIFAR-10, the
	// map-vs-MM convolution variant).
	Device device.Kind
}

// settingsLabel renders the paper's notation for the setting source.
func (s RunSpec) settingsLabel() string {
	return s.SettingsFW.Short() + " " + s.SettingsDS.String()
}

// CellKey names the spec's unique training computation — the unit of
// checkpointing, fault targeting and failure isolation. Two specs that
// share a cached model (CPU/GPU rows of a device-independent
// configuration) share a cell key; the key is stable across processes so
// -resume finds the right checkpoint.
func (s RunSpec) CellKey() string {
	return s.Framework.Short() + " " + s.settingsLabel() + " on " + s.Data.String() + " @" + variantFor(s).String()
}

// Suite runs the benchmark matrix at a fixed scale with a fixed master
// seed. It caches synthetic datasets and trained models so experiments
// sharing a configuration (e.g. Figure 1 and Table VI) train once.
type Suite struct {
	scale Scale
	seed  uint64

	mu       sync.Mutex
	datasets map[framework.DatasetID][2]*data.Dataset // train, test
	models   map[modelKey]*trainedModel
	resnets  map[framework.DatasetID]*nn.Network // shared infer-sweep ResNet cells

	// Progress, when non-nil, receives one line per completed training
	// run (for CLI feedback during long sweeps).
	Progress func(format string, args ...any)

	// Obs, when non-nil, receives execution spans (per run, epoch,
	// iteration and phase), dispatch counters and loss/accuracy gauges
	// from every training computation, and per-run telemetry deltas are
	// attached to each RunResult. Nil (the default) disables the entire
	// instrumentation layer at negligible cost.
	Obs *obs.Tracer

	// Resilience configures fault-tolerant training: the in-training
	// divergence guard, checkpoint rollback and the bounded retry loop.
	// The zero value disables all of it, preserving the legacy fail-open
	// behavior (a diverged run trains to completion and is reported via
	// its Converged flag).
	Resilience resilience.Policy

	// Checkpoints, when non-nil, persists periodic training checkpoints
	// to disk (one file per cell, seed and scale) so a killed sweep can
	// be resumed.
	Checkpoints *resilience.Store

	// Resume makes training runs continue from their on-disk checkpoint
	// (when one exists in Checkpoints) instead of starting fresh.
	Resume bool

	// Faults, when non-nil, arms the deterministic fault-injection
	// harness for matching cells. Nil costs the training loop a pointer
	// test and leaves executor op hooks uninstalled.
	Faults *resilience.Plan
}

// modelKey identifies a unique training computation. Device enters the key
// only when it changes the mathematics (Torch's CIFAR-10 map-vs-MM conv);
// otherwise CPU and GPU rows share one trained model and differ only in
// modeled time.
type modelKey struct {
	fw         framework.ID
	settingsFW framework.ID
	settingsDS framework.DatasetID
	data       framework.DatasetID
	variant    device.Kind // device.GPU unless semantics differ per device
}

// trainedModel caches the outcome of one training computation.
type trainedModel struct {
	net           *nn.Network
	accuracyPct   float64
	finalLoss     float64
	converged     bool
	lossHistory   []metrics.LossPoint
	epochs        int
	iters         int
	trainWall     float64
	testWall      float64
	flopsPerSamp  int64
	trainDisp     int
	inferDisp     int
	testConfusion *metrics.Confusion
	telemetry     *obs.Snapshot
}

// NewSuite constructs a suite at the given scale.
func NewSuite(scale Scale, seed uint64) (*Suite, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	return &Suite{
		scale:    scale,
		seed:     seed,
		datasets: make(map[framework.DatasetID][2]*data.Dataset),
		models:   make(map[modelKey]*trainedModel),
		resnets:  make(map[framework.DatasetID]*nn.Network),
	}, nil
}

// ReleaseModels drops every cached trained model — parameters, gradients
// and any layer buffers they still reference. Experiments that revisit a
// cell retrain it transparently on next use. The serve daemon calls this
// under memory pressure, trading warm-cache latency for heap headroom.
func (s *Suite) ReleaseModels() {
	s.mu.Lock()
	s.models = make(map[modelKey]*trainedModel)
	s.resnets = make(map[framework.DatasetID]*nn.Network)
	s.mu.Unlock()
}

func (s *Suite) progress(format string, args ...any) {
	if s.Progress != nil {
		s.Progress(format, args...)
	}
}

// Datasets returns (and lazily generates) the synthetic train/test splits
// for ds.
func (s *Suite) Datasets(ds framework.DatasetID) (train, test *data.Dataset, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if pair, ok := s.datasets[ds]; ok {
		return pair[0], pair[1], nil
	}
	cfg := data.SynthConfig{Train: s.scale.Train, Test: s.scale.Test, Seed: s.seed, Obs: s.Obs}
	switch ds {
	case framework.MNIST:
		cfg.Difficulty = s.scale.MNISTDifficulty
		train, test, err = data.SynthMNIST(cfg)
	case framework.CIFAR10:
		if s.scale.CIFARTrain > 0 {
			cfg.Train = s.scale.CIFARTrain
		}
		if s.scale.CIFARTest > 0 {
			cfg.Test = s.scale.CIFARTest
		}
		cfg.Difficulty = s.scale.CIFARDifficulty
		train, test, err = data.SynthCIFAR10(cfg)
	default:
		return nil, nil, fmt.Errorf("%w: dataset %v", ErrConfig, ds)
	}
	if err != nil {
		return nil, nil, err
	}
	s.datasets[ds] = [2]*data.Dataset{train, test}
	return train, test, nil
}

// paperTrainSize returns the real corpus training-set size the paper's
// epoch arithmetic uses.
func paperTrainSize(ds framework.DatasetID) int {
	if ds == framework.MNIST {
		return 60000
	}
	return 50000
}

// paperTestSize returns the real corpus test-set size.
func paperTestSize(framework.DatasetID) int { return 10000 }

// scaledEpochs compresses the paper's epoch budget (see Scale.EpochFactor).
// The epoch count is taken over the setting's own training corpus
// (d.TrainSamples — Torch's CIFAR-10 tutorial uses a 5,000-sample subset),
// paired with subsetFraction below.
func (s *Suite) scaledEpochs(d framework.TrainingDefaults, dataDS framework.DatasetID) int {
	paperEpochs := float64(d.MaxIters) * float64(d.BatchSize) / float64(d.TrainSamples)
	e := int(math.Round(s.scale.EpochFactor * math.Log2(1+paperEpochs)))
	if e < 1 {
		e = 1
	}
	if e > s.scale.MaxEpochs {
		e = s.scale.MaxEpochs
	}
	return e
}

// subsetFraction returns the fraction of the (scaled) training corpus the
// setting actually trains on: Torch's CIFAR-10 tutorial uses a 10% subset
// of the 50,000 images; every other setting trains on the full corpus.
// The suite reproduces the fraction (relative to the setting's own paper
// corpus), which costs the same relative data diversity the paper's Torch
// run paid — wherever the setting is transferred.
func subsetFraction(d framework.TrainingDefaults, _ framework.DatasetID) float64 {
	frac := float64(d.TrainSamples) / float64(paperTrainSize(d.Dataset))
	if frac > 1 {
		frac = 1
	}
	return frac
}

// variantFor returns the device variant component of the model cache key:
// only Torch's CIFAR-10 architecture differs between CPU and GPU.
func variantFor(spec RunSpec) device.Kind {
	if spec.SettingsFW == framework.Torch && spec.SettingsDS == framework.CIFAR10 {
		return spec.Device
	}
	return device.GPU
}

// seedFor derives a deterministic per-configuration RNG seed.
func (s *Suite) seedFor(k modelKey) uint64 {
	h := s.seed
	for _, v := range []uint64{uint64(k.fw), uint64(k.settingsFW), uint64(k.settingsDS), uint64(k.data), uint64(k.variant)} {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	}
	return h
}

// effectiveDefaults applies the executing framework's solver traits to the
// transferred setting — the mechanical core of the paper's
// framework-dependent observations:
//
//   - Caffe's solver carries momentum 0.9 by default, so an imported
//     setting that does not specify momentum inherits it (this is what
//     makes TensorFlow's lr=0.1 CIFAR-10 setting diverge under Caffe while
//     converging under TensorFlow, and Caffe's own lr=0.01 MNIST setting
//     diverge on CIFAR-10 — paper Figures 4/5/7).
//   - The regularizer type follows the framework (paper Table IX):
//     TensorFlow regularizes with dropout (inserting its default 0.5 rate
//     into foreign architectures), Caffe with weight decay (falling back
//     to its LeNet default 5e-4 when the imported setting carries none),
//     Torch with neither.
func effectiveDefaults(fw framework.ID, d framework.TrainingDefaults) (framework.TrainingDefaults, float64) {
	dropRate := 0.0
	switch fw {
	case framework.TensorFlow:
		dropRate = d.Dropout
		// Table IX lists TF-run MNIST models as dropout-regularized even
		// under Caffe's parameters: TF inserts its default 0.5 dropout
		// into foreign MNIST settings. Its own CIFAR-10 tutorial carries
		// no dropout, so CIFAR settings are left alone.
		if dropRate == 0 && d.Dataset == framework.MNIST {
			dropRate = 0.5
		}
	case framework.Caffe:
		if d.Algorithm == "sgd" && d.Momentum < 0.9 {
			d.Momentum = 0.9
		}
		if d.WeightDecay == 0 {
			d.WeightDecay = 0.0005
		}
		d.Dropout = 0
	case framework.Torch:
		d.Dropout = 0
		d.WeightDecay = 0
	}
	return d, dropRate
}
