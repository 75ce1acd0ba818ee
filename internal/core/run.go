package core

import (
	"context"
	"fmt"

	"repro/internal/framework"
	"repro/internal/metrics"
	"repro/internal/nn"
)

// evalBatchSize is the batch size used for test-set evaluation (the paper
// frameworks all evaluate in large batches regardless of training batch).
const evalBatchSize = 100

// Run executes (or retrieves from cache) the training computation for spec
// and assembles its RunResult, with cost-model times for spec.Device at
// paper scale. It is RunContext under a background context.
func (s *Suite) Run(spec RunSpec) (metrics.RunResult, error) {
	return s.RunContext(context.Background(), spec)
}

// RunContext is Run under a caller-controlled context: cancellation
// (timeouts, SIGINT) is observed at iteration granularity during training
// and at batch granularity during evaluation, so a cancelled sweep
// returns within one executor phase.
func (s *Suite) RunContext(ctx context.Context, spec RunSpec) (metrics.RunResult, error) {
	tm, err := s.model(ctx, spec)
	if err != nil {
		return metrics.RunResult{}, err
	}
	return s.assemble(spec, tm)
}

// TrainedNetworkContext returns the trained network for spec (used by
// the adversarial experiments, which attack trained models), training it
// under ctx when it is not cached.
func (s *Suite) TrainedNetworkContext(ctx context.Context, spec RunSpec) (*nn.Network, error) {
	tm, err := s.model(ctx, spec)
	if err != nil {
		return nil, err
	}
	return tm.net, nil
}

// assemble builds the result view of a cached computation for a device.
func (s *Suite) assemble(spec RunSpec, tm *trainedModel) (metrics.RunResult, error) {
	d, err := framework.Defaults(spec.SettingsFW, spec.SettingsDS)
	if err != nil {
		return metrics.RunResult{}, err
	}
	cm, err := framework.CostModelFor(spec.Framework, spec.Device)
	if err != nil {
		return metrics.RunResult{}, err
	}
	trainModel := cm.TrainSeconds(tm.flopsPerSamp, d.MaxIters, d.BatchSize, tm.trainDisp)
	testModel := cm.TestSeconds(tm.flopsPerSamp, paperTestSize(spec.Data), evalBatchSize, tm.inferDisp)
	return metrics.RunResult{
		Framework:   spec.Framework.Short(),
		Settings:    spec.settingsLabel(),
		Dataset:     spec.Data.String(),
		Device:      spec.Device.String(),
		Train:       metrics.TimeRecord{ModelSeconds: trainModel, WallSeconds: tm.trainWall},
		Test:        metrics.TimeRecord{ModelSeconds: testModel, WallSeconds: tm.testWall},
		AccuracyPct: tm.accuracyPct,
		FinalLoss:   tm.finalLoss,
		Converged:   tm.converged,
		LossHistory: tm.lossHistory,
		Epochs:      tm.epochs,
		Telemetry:   tm.telemetry,
	}, nil
}

// keyFor builds the model-cache key identifying spec's training
// computation.
func keyFor(spec RunSpec) modelKey {
	return modelKey{
		fw:         spec.Framework,
		settingsFW: spec.SettingsFW,
		settingsDS: spec.SettingsDS,
		data:       spec.Data,
		variant:    variantFor(spec),
	}
}

// ReleaseModel drops one cell's cached trained model, so the next run of
// that cell retrains instead of reusing the memoized computation. The
// serve daemon calls this before every job: a benchmark service must
// measure each submitted job fresh — and a fault-armed job must actually
// execute its fault plan, which a cache hit would silently skip — while
// the suite's datasets stay warm.
func (s *Suite) ReleaseModel(spec RunSpec) {
	s.mu.Lock()
	delete(s.models, keyFor(spec))
	s.mu.Unlock()
}

// model returns the cached training computation for spec, training it on
// first use.
func (s *Suite) model(ctx context.Context, spec RunSpec) (*trainedModel, error) {
	key := keyFor(spec)
	s.mu.Lock()
	tm, ok := s.models[key]
	s.mu.Unlock()
	if ok {
		return tm, nil
	}
	tm, err := s.train(ctx, spec, key)
	if err != nil {
		return nil, fmt.Errorf("core: run %s on %v under %v: %w", spec.settingsLabel(), spec.Data, spec.Framework, err)
	}
	s.mu.Lock()
	s.models[key] = tm
	s.mu.Unlock()
	return tm, nil
}
