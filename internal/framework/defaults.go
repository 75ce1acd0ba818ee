package framework

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/optim"
)

// TrainingDefaults captures one framework's default training
// configuration for one dataset — the paper's Tables II and III, plus the
// initialization and regularization details the architectures imply.
// Iteration counts are at *paper scale*; the harness scales them to its
// sample budget while preserving the epoch structure.
type TrainingDefaults struct {
	// Framework and Dataset identify whose default this is.
	Framework ID
	Dataset   DatasetID
	// Algorithm is "adam" or "sgd".
	Algorithm string
	// BaseLR is the starting learning rate.
	BaseLR float64
	// SecondLR, when non-zero, is the second-phase learning rate (Caffe's
	// two-phase CIFAR-10 schedule); PhaseSplit is the fraction of total
	// iterations trained at BaseLR before the switch.
	SecondLR   float64
	PhaseSplit float64
	// LRGamma/LRPower parameterize Caffe's "inv" decay on MNIST (0 =
	// constant).
	LRGamma, LRPower float64
	// BatchSize is the mini-batch size.
	BatchSize int
	// MaxIters is the paper-scale iteration budget.
	MaxIters int
	// Epochs is the derived epoch count (MaxIters·BatchSize/TrainSamples).
	Epochs float64
	// TrainSamples is the paper-scale training-set size used to derive
	// Epochs.
	TrainSamples int
	// Momentum and WeightDecay configure SGD; Dropout configures the
	// TensorFlow-style dropout layer rate (0 = no dropout layer).
	Momentum    float64
	WeightDecay float64
	Dropout     float64
	// Init selects the weight initialization the framework's example
	// scripts default to. (Input preprocessing is NOT part of a setting:
	// it belongs to the executing framework's data pipeline — see
	// PreprocessingFor.)
	Init nn.InitConfig
	// DecayAtFrac lists run fractions at which the learning rate decays
	// ×0.1. TensorFlow's CIFAR-10 tutorial decays every 350 of its 2560
	// epochs; under the suite's logarithmic epoch compression the run
	// budget corresponds to the tutorial's long initial high-LR phase, so
	// the compressed schedule keeps the high rate for most of the run and
	// decays near the end for refinement.
	DecayAtFrac []float64
}

// Defaults returns the paper's default training configuration for
// (framework, dataset).
func Defaults(id ID, ds DatasetID) (TrainingDefaults, error) {
	switch {
	case id == TensorFlow && ds == MNIST:
		// Table II: Adam, lr 1e-4, batch 50, 20,000 iterations, 16.67
		// epochs; the TF tutorial model regularizes with dropout 0.5 and
		// initializes with truncated normal σ=0.1, bias 0.1.
		return TrainingDefaults{
			Framework: id, Dataset: ds,
			Algorithm: "adam", BaseLR: 0.0001,
			BatchSize: 50, MaxIters: 20000, Epochs: 16.67, TrainSamples: 60000,
			Dropout: 0.5,
			Init:    nn.InitConfig{Scheme: nn.InitTruncatedNormal, Sigma: 0.1, BiasConst: 0.1},
		}, nil
	case id == Caffe && ds == MNIST:
		// Table II: SGD, base lr 0.01, batch 64, 10,000 iterations;
		// LeNet solver: momentum 0.9, weight decay 5e-4, "inv" LR policy
		// (γ=1e-4, power=0.75), xavier fillers.
		return TrainingDefaults{
			Framework: id, Dataset: ds,
			Algorithm: "sgd", BaseLR: 0.01, LRGamma: 0.0001, LRPower: 0.75,
			BatchSize: 64, MaxIters: 10000, Epochs: 10.67, TrainSamples: 60000,
			Momentum: 0.9, WeightDecay: 0.0005,
			Init: nn.InitConfig{Scheme: nn.InitXavier},
		}, nil
	case id == Torch && ds == MNIST:
		// Table II: SGD, base lr 0.05, batch 10, 120,000 iterations,
		// 20 epochs; Torch's default reset is uniform fan-in (xavier-like).
		return TrainingDefaults{
			Framework: id, Dataset: ds,
			Algorithm: "sgd", BaseLR: 0.05,
			BatchSize: 10, MaxIters: 120000, Epochs: 20, TrainSamples: 60000,
			Init: nn.InitConfig{Scheme: nn.InitXavier},
		}, nil
	case id == TensorFlow && ds == CIFAR10:
		// Table III: SGD, lr 0.1, batch 128, 1,000,000 iterations, 2560
		// epochs. The tutorial behind this setting decays the rate ×0.1
		// every 350 epochs and weight-decays the dense layers.
		return TrainingDefaults{
			Framework: id, Dataset: ds,
			Algorithm: "sgd", BaseLR: 0.1,
			BatchSize: 128, MaxIters: 1000000, Epochs: 2560, TrainSamples: 50000,
			WeightDecay: 0.004,
			Init:        nn.InitConfig{Scheme: nn.InitTruncatedNormal, Sigma: 0.05, BiasConst: 0.1},
			DecayAtFrac: []float64{0.2, 0.7},
		}, nil
	case id == Caffe && ds == CIFAR10:
		// Table III: two-phase SGD 0.001→0.0001, batch 100, 5,000
		// iterations, 8+2 epochs; cifar10_quick solver: momentum 0.9,
		// weight decay 0.004, gaussian fillers σ=1e-4 on conv1 (sized for
		// Caffe's raw ±128 CIFAR inputs — see PrepCaffeRaw), σ=0.01 on
		// the other convolutions and σ=0.1 on the inner-product layers.
		return TrainingDefaults{
			Framework: id, Dataset: ds,
			Algorithm: "sgd", BaseLR: 0.001, SecondLR: 0.0001, PhaseSplit: 0.8,
			BatchSize: 100, MaxIters: 5000, Epochs: 10, TrainSamples: 50000,
			Momentum: 0.9, WeightDecay: 0.004,
			Init: nn.InitConfig{Scheme: nn.InitGaussian, Sigma: 0.01, FCSigma: 0.1, FirstConvSigma: 0.0001},
		}, nil
	case id == Torch && ds == CIFAR10:
		// Table III: SGD, lr 0.001, batch 1, 100,000 iterations, 20
		// epochs. The paper derives 100,000 = 20·5,000/1: Torch's CIFAR-10
		// tutorial trains on a 5,000-sample subset of the 50,000 images.
		return TrainingDefaults{
			Framework: id, Dataset: ds,
			Algorithm: "sgd", BaseLR: 0.001,
			BatchSize: 1, MaxIters: 100000, Epochs: 20, TrainSamples: 5000,
			Init: nn.InitConfig{Scheme: nn.InitXavier},
		}, nil
	default:
		return TrainingDefaults{}, fmt.Errorf("%w: defaults for %v on %v", ErrUnknown, id, ds)
	}
}

// Schedule builds the optimizer learning-rate schedule for a run of
// totalIters iterations (which may be a scaled-down version of MaxIters).
func (d TrainingDefaults) Schedule(totalIters int) optim.Schedule {
	switch {
	case len(d.DecayAtFrac) > 0:
		boundaries := make([]int, 0, len(d.DecayAtFrac))
		factors := make([]float64, 0, len(d.DecayAtFrac))
		for _, f := range d.DecayAtFrac {
			b := int(f * float64(totalIters))
			if b < 1 {
				b = 1
			}
			boundaries = append(boundaries, b)
			factors = append(factors, 0.1)
		}
		return optim.StepSchedule{Base: d.BaseLR, Boundaries: boundaries, Factors: factors}
	case d.SecondLR != 0:
		boundary := int(d.PhaseSplit * float64(totalIters))
		return optim.StepSchedule{
			Base:       d.BaseLR,
			Boundaries: []int{boundary},
			Factors:    []float64{d.SecondLR / d.BaseLR},
		}
	case d.LRGamma != 0:
		return optim.InverseDecaySchedule{Base: d.BaseLR, Gamma: d.LRGamma, Power: d.LRPower}
	default:
		return optim.ConstantSchedule(d.BaseLR)
	}
}

// NewOptimizer constructs the defaults' optimizer over params for a run of
// totalIters iterations.
func (d TrainingDefaults) NewOptimizer(params []*nn.Param, totalIters int) (optim.Optimizer, error) {
	return d.NewOptimizerLR(params, totalIters, 1)
}

// NewOptimizerLR is NewOptimizer with every learning rate of the schedule
// multiplied by lrScale. The resilience layer retries diverged runs with
// lrScale < 1; lrScale 1 is the unmodified default.
func (d TrainingDefaults) NewOptimizerLR(params []*nn.Param, totalIters int, lrScale float64) (optim.Optimizer, error) {
	sched := optim.Scaled(d.Schedule(totalIters), lrScale)
	switch d.Algorithm {
	case "adam":
		return optim.NewAdam(params, optim.AdamConfig{Schedule: sched})
	case "sgd":
		return optim.NewSGD(params, optim.SGDConfig{
			Schedule:    sched,
			Momentum:    d.Momentum,
			WeightDecay: d.WeightDecay,
		})
	default:
		return nil, fmt.Errorf("%w: algorithm %q", ErrUnknown, d.Algorithm)
	}
}
