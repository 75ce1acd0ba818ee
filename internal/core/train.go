package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/framework"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/optim"
	"repro/internal/resilience"
	"repro/internal/tensor"
)

// trainingRun is the mutable state of one training computation while it
// is in flight: everything a checkpoint must capture and a rollback must
// restore.
type trainingRun struct {
	cell     string
	defaults framework.TrainingDefaults
	prep     framework.Preprocessing
	net      *nn.Network
	exec     engine.Executor
	opt      optim.Optimizer
	batches  *data.Batches

	epochs        int
	totalIters    int
	itersPerEpoch int
	lossEvery     int

	// Resilience state. The zero policy, a nil injector and a zero
	// ckptEvery (no periodic captures) leave runIters a plain loop.
	policy     resilience.Policy
	injector   *resilience.Injector
	ckptEvery  int
	faultsSeen int64
	attempt    int
	lrScale    float64
	mem        *resilience.Checkpoint // last checkpoint (rollback target)

	lastLoss    float64
	lossHistory []metrics.LossPoint
	// trainWall accumulates training wall time across attempts.
	trainWall float64
}

// newRun sets up what runIters drives for net: fw's executor traced into
// the suite, the setting's optimizer over its scaled epoch budget, and a
// batch iterator over trainSet shuffled by rng.Split(). Inputs go through
// fw's pipeline for ds.
func (s *Suite) newRun(cell string, fw framework.ID, ds framework.DatasetID, defaults framework.TrainingDefaults, net *nn.Network, trainSet *data.Dataset, rng *tensor.RNG) (*trainingRun, error) {
	exec, err := framework.NewTracedExecutor(fw, net, defaults.BatchSize, s.Obs)
	if err != nil {
		return nil, err
	}
	epochs := s.scaledEpochs(defaults)
	itersPerEpoch := (trainSet.Len() + defaults.BatchSize - 1) / defaults.BatchSize
	totalIters := epochs * itersPerEpoch
	opt, err := defaults.NewOptimizer(net.Params(), totalIters)
	if err != nil {
		return nil, err
	}
	batches, err := data.NewBatches(trainSet, defaults.BatchSize, rng.Split())
	if err != nil {
		return nil, err
	}
	batches.SetObs(s.Obs)
	return &trainingRun{
		cell:          cell,
		defaults:      defaults,
		prep:          framework.PreprocessingFor(fw, ds),
		net:           net,
		exec:          exec,
		opt:           opt,
		batches:       batches,
		epochs:        epochs,
		totalIters:    totalIters,
		itersPerEpoch: max(itersPerEpoch, 1),
		lossEvery:     max(totalIters/s.scale.LossPoints, 1),
		lrScale:       1,
	}, nil
}

// train performs the actual scaled training run, with the resilience
// layer (divergence guard, checkpoint rollback, bounded retries) active
// when the suite's policy enables it.
func (s *Suite) train(ctx context.Context, spec RunSpec, key modelKey) (*trainedModel, error) {
	// Everything the run records between these two snapshots becomes the
	// run's telemetry delta on its RunResult.
	telemetryBefore := s.Obs.Snapshot()
	runSpan := s.Obs.Span("suite.run", "suite")
	defer runSpan.End()
	// Progress identity for live exposition (/metrics, /status): which
	// cell is training right now, at which scale.
	cell := spec.CellKey()
	s.Obs.Info("suite.cell").Set(cell)
	s.Obs.Info("suite.scale").Set(s.scale.Name)
	s.Obs.Emit("run.start", map[string]any{"cell": cell})
	defaults, err := framework.Defaults(spec.SettingsFW, spec.SettingsDS)
	if err != nil {
		return nil, err
	}
	defaults, dropRate := effectiveDefaults(spec.Framework, defaults)
	in, err := framework.InputFor(spec.Data)
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(s.seedFor(key))
	net, err := framework.BuildNetwork(spec.SettingsFW, spec.SettingsDS, in, framework.NetworkOptions{
		Device:      key.variant,
		DropoutRate: dropRate,
		RNG:         rng.Split(),
	})
	if err != nil {
		return nil, err
	}
	if err := nn.InitNetwork(net, defaults.Init, rng.Split()); err != nil {
		return nil, err
	}
	trainSet, testSet, err := s.Datasets(spec.Data)
	if err != nil {
		return nil, err
	}

	// Settings that train on a corpus subset (Torch's CIFAR-10 tutorial)
	// keep the same subset fraction at reproduction scale.
	if frac := subsetFraction(defaults); frac < 1 {
		n := int(frac * float64(trainSet.Len()))
		if n < defaults.BatchSize {
			n = defaults.BatchSize
		}
		if n < trainSet.Len() {
			sub, err := trainSet.Subset(n)
			if err != nil {
				return nil, err
			}
			trainSet = sub
		}
	}

	// Input preprocessing follows the executing framework's data pipeline
	// for the dataset (see framework.PreprocessingFor) — settings tuned
	// against one pipeline can explode on another, which is the paper's
	// Figure 5 mechanism.
	r, err := s.newRun(cell, spec.Framework, spec.Data, defaults, net, trainSet, rng)
	if err != nil {
		return nil, err
	}
	r.policy = s.Resilience
	// Arm the fault harness for this cell. The injector doubles as the
	// executor's op hook; when no fault targets the cell the hook stays
	// uninstalled and the executors keep their nil-check fast path.
	if r.injector = s.Faults.For(r.cell); r.injector != nil {
		r.exec.SetOpHook(func(site string) error { return r.injector.OpError(ctx, site) })
	}

	tm := &trainedModel{
		net:          net,
		epochs:       r.epochs,
		iters:        r.totalIters,
		flopsPerSamp: net.FLOPsPerSample(),
		trainDisp:    r.exec.Stats().TrainDispatches,
		inferDisp:    r.exec.Stats().InferDispatches,
	}
	s.progress("train %-14s on %-8s under %-10s (%s, %d epochs, %d iters)",
		spec.settingsLabel(), spec.Data, spec.Framework, spec.Device, r.epochs, r.totalIters)

	if err := s.trainResilient(ctx, r); err != nil {
		return nil, err
	}
	tm.lossHistory = r.lossHistory
	tm.finalLoss = r.lastLoss

	// Training is over: the optimizer's moment tensors and the batch-sized
	// layer buffers are dead weight for evaluation, which runs at its own
	// batch size. Drop them (and the arena's idle train-shaped scratch)
	// and collect, so the eval phase's sampled heap reflects the eval
	// working set rather than training leftovers stacked under it.
	r.opt = nil
	net.ReleaseBuffers()
	tensor.ArenaRelease()
	runtime.GC()

	// Evaluate.
	evalSpan := s.Obs.Span("suite.eval", "suite")
	evalStart := time.Now()
	conf, err := s.evaluate(ctx, r.exec, testSet, r.prep)
	evalSpan.End()
	if err != nil {
		return nil, err
	}
	tm.testWall = time.Since(evalStart).Seconds()
	tm.trainWall = r.trainWall
	tm.testConfusion = conf
	tm.accuracyPct = conf.Accuracy()
	s.Obs.Gauge("suite.accuracy_pct").Set(tm.accuracyPct)
	// The model goes dormant in the suite cache; drop its large per-batch
	// buffers (they are rebuilt transparently if the model is reused for
	// adversarial attacks), and hand the arena's idle scratch back to the
	// GC so one cell's retained working set is not charged against the
	// next cell's sampled heap footprint.
	net.ReleaseBuffers()
	tensor.ArenaRelease()
	// The GC here both reclaims the cell's garbage and resets the pacer's
	// heap goal, which one cell's transient working set would otherwise
	// inflate for the whole next cell — the next cell then runs hundreds
	// of MB of allocation before its first collection and its peak heap
	// measures our pacer slack, not its working set.
	runtime.GC()

	// Convergence: a run "converged" when it trained into a model that is
	// meaningfully better than chance with a finite, unclamped loss. A
	// diverged run (the paper's Caffe-on-CIFAR cases) either pins the
	// loss at the clamp or kills the network into near-random accuracy.
	chance := 100.0 / float64(testSet.Classes)
	tm.converged = !math.IsNaN(r.lastLoss) && !math.IsInf(r.lastLoss, 0) &&
		r.lastLoss < nn.CaffeLossClamp*0.99 &&
		tm.accuracyPct >= 2.5*chance
	s.progress("  -> accuracy %.2f%% loss %.4f converged=%v wall %.1fs",
		tm.accuracyPct, tm.finalLoss, tm.converged, tm.trainWall)
	s.Obs.Emit("run.end", map[string]any{
		"cell":         cell,
		"accuracy_pct": tm.accuracyPct,
		"final_loss":   jsonFloat(tm.finalLoss),
		"converged":    tm.converged,
		"train_wall_s": tm.trainWall,
		"test_wall_s":  tm.testWall,
	})
	tm.telemetry = obs.Delta(telemetryBefore, s.Obs.Snapshot())
	return tm, nil
}

// trainWall is tracked on the run so retries accumulate into one number.
func (r *trainingRun) addWall(d time.Duration) { r.trainWall += d.Seconds() }

// trainResilient drives the attempt loop around runIters: classify the
// failure, roll back to the last checkpoint, decay the learning rate on
// divergence, and retry at once within the policy's budget (training is
// deterministic, so waiting would only delay the replay). With the zero
// policy and no faults or checkpoints configured, it is exactly one
// runIters call with no checkpoint captures.
func (s *Suite) trainResilient(ctx context.Context, r *trainingRun) error {
	guard := r.policy.Enabled()
	if guard || s.Checkpoints != nil || s.Resume {
		r.ckptEvery = resilience.CheckpointPeriod(r.totalIters)
	}

	startIter := 0
	if s.Resume {
		cp, found, err := s.Checkpoints.Load(s.checkpointKey(r.cell))
		if err != nil {
			return err
		}
		if found {
			r.lrScale = cp.LRScale
			r.attempt = cp.Attempt
			if err := s.rollback(r, cp); err != nil {
				return fmt.Errorf("resume %s: %w", r.cell, err)
			}
			startIter = cp.Iteration
			r.mem = cp
			s.Obs.Counter(resilience.CounterResumes).Inc()
			s.Obs.Emit("resilience.resume", map[string]any{"cell": r.cell, "iter": startIter})
			s.progress("  resume %s from checkpoint at iteration %d/%d", r.cell, startIter, r.totalIters)
		}
	}
	if r.ckptEvery > 0 && r.mem == nil {
		if _, err := s.checkpoint(r, 0); err != nil {
			return err
		}
	}

	recovered := false
	for {
		err := s.runIters(ctx, r, startIter)
		s.syncFaultCounter(r)
		if err == nil {
			break
		}
		// Cancellation and simulated process kills surface immediately:
		// neither is recoverable in-process (the crash fault exists to
		// exercise -resume after losing the process).
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		if errors.Is(err, resilience.ErrInjectedCrash) {
			return err
		}
		diverged := errors.Is(err, resilience.ErrDiverged)
		if diverged {
			s.Obs.Counter(resilience.CounterDivergences).Inc()
			s.Obs.Emit("resilience.divergence", map[string]any{"cell": r.cell, "error": err.Error()})
		}
		if errors.Is(err, engine.ErrPanic) {
			s.Obs.Counter(resilience.CounterPanics).Inc()
		}
		if !guard {
			return err
		}
		// Only failures the resilience layer understands are retried;
		// configuration and I/O errors surface as-is.
		if !diverged && !errors.Is(err, resilience.ErrInjected) && !errors.Is(err, engine.ErrPanic) {
			return err
		}
		if r.attempt >= r.policy.MaxRetries {
			return fmt.Errorf("%w after %d attempts: %w", resilience.ErrRetriesExhausted, r.attempt+1, err)
		}
		r.attempt++
		s.Obs.Counter(resilience.CounterRetries).Inc()
		s.Obs.Emit("resilience.retry", map[string]any{
			"cell":    r.cell,
			"attempt": r.attempt,
			"error":   err.Error(),
		})
		if diverged {
			// Divergence is a step-size pathology: retry from the last
			// good state with a decayed learning rate. Injected op faults
			// and panics are transient; the same rate is kept.
			r.lrScale *= resilience.LRDecay
		}
		s.progress("  recover %s: attempt %d/%d from iteration %d (lr scale %.3g): %v",
			r.cell, r.attempt, r.policy.MaxRetries, r.mem.Iteration, r.lrScale, err)
		if err := s.rollback(r, r.mem); err != nil {
			return err
		}
		s.Obs.Counter(resilience.CounterRollbacks).Inc()
		s.Obs.Emit("resilience.rollback", map[string]any{"cell": r.cell, "iter": r.mem.Iteration})
		startIter = r.mem.Iteration
		recovered = true
	}
	if recovered {
		s.Obs.Counter(resilience.CounterRecoveries).Inc()
	}
	// A completed run leaves a final checkpoint so an interrupted matrix
	// resumed later skips straight past it.
	if s.Checkpoints != nil {
		if _, err := s.checkpoint(r, r.totalIters); err != nil {
			return err
		}
	}
	return nil
}

// checkpoint captures the run after `iteration` completed iterations as
// its rollback target and saves it to the store (a no-op without one),
// inside a suite.checkpoint span. It returns the time taken, which the
// training clock leaves out: trainWall times training, not the suite's
// own checkpoint work.
func (s *Suite) checkpoint(r *trainingRun, iteration int) (time.Duration, error) {
	start := time.Now()
	span := s.Obs.Span("suite.checkpoint", "suite")
	defer span.End()
	r.mem = s.capture(r, iteration)
	if err := s.Checkpoints.Save(r.mem); err != nil {
		return time.Since(start), err
	}
	s.Obs.Counter(resilience.CounterCheckpoints).Inc()
	s.Obs.Emit("resilience.checkpoint", map[string]any{"cell": r.cell, "iter": iteration})
	return time.Since(start), nil
}

// runIters runs training iterations [startIter, totalIters), capturing a
// checkpoint every r.ckptEvery iterations when that is set. It is the
// suite's only training loop. Its wall time, less the checkpoints', adds
// to r.trainWall.
func (s *Suite) runIters(ctx context.Context, r *trainingRun, startIter int) (err error) {
	guard := r.policy.Enabled()
	lossGauge := s.Obs.Gauge("suite.loss")
	iterGauge := s.Obs.Gauge("suite.iter")
	epochGauge := s.Obs.Gauge("suite.epoch_idx")
	iterCount := s.Obs.Counter("suite.iterations")
	trainSpan := s.Obs.Span("suite.train", "suite")
	start := time.Now()
	var saving time.Duration // checkpoint time inside the loop
	defer func() { r.addWall(time.Since(start) - saving) }()
	defer trainSpan.End()
	epochSpan := s.Obs.Span("suite.epoch", "suite")
	defer func() { epochSpan.End() }()
	for it := startIter; it < r.totalIters; it++ {
		// Cancellation is observed at iteration granularity here and at
		// phase granularity inside the executors.
		if err := ctx.Err(); err != nil {
			return err
		}
		if it > startIter && it%r.itersPerEpoch == 0 {
			epochSpan.End()
			epochSpan = s.Obs.Span("suite.epoch", "suite")
			s.Obs.Emit("epoch", map[string]any{
				"cell":  r.cell,
				"epoch": it / r.itersPerEpoch,
				"loss":  jsonFloat(r.lastLoss),
			})
		}
		iterGauge.Set(float64(it))
		epochGauge.Set(float64(it / r.itersPerEpoch))
		r.injector.BeginIteration(it)
		if err := r.injector.Crash(); err != nil {
			return err
		}
		iterSpan := s.Obs.Span("suite.iter", "suite")
		x, labels, err := r.batches.Next()
		if err != nil {
			iterSpan.End()
			return err
		}
		r.injector.CorruptBatch(x)
		framework.ApplyPreprocessingObs(r.prep, x, s.Obs)
		res, err := r.exec.TrainBatch(ctx, x, labels)
		if err == nil {
			if v, fired := r.injector.PoisonLoss(res.Loss); fired {
				res.Loss = v
			}
			if guard {
				err = resilience.CheckLoss(it, res.Loss)
				if err == nil {
					err = resilience.CheckGrads(it, r.net.Params())
				}
			}
		}
		if err == nil {
			update := s.Obs.Span("suite.update", "suite")
			err = r.opt.Step()
			update.End()
		}
		iterSpan.End()
		if err != nil {
			return err
		}
		r.lastLoss = res.Loss
		lossGauge.Set(res.Loss)
		iterCount.Inc()
		if it%r.lossEvery == 0 || it == r.totalIters-1 {
			r.lossHistory = append(r.lossHistory, metrics.LossPoint{Iteration: it, Loss: res.Loss})
		}
		if r.ckptEvery > 0 && (it+1)%r.ckptEvery == 0 && it+1 < r.totalIters {
			d, err := s.checkpoint(r, it+1)
			saving += d
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// syncFaultCounter folds newly fired injections into the obs counter and
// event log.
func (s *Suite) syncFaultCounter(r *trainingRun) {
	if r.injector == nil {
		return
	}
	if fired := r.injector.Injected(); fired > r.faultsSeen {
		s.Obs.Counter(resilience.CounterFaultsInjected).Add(fired - r.faultsSeen)
		s.Obs.Emit("resilience.fault.injected", map[string]any{
			"cell":  r.cell,
			"fired": fired - r.faultsSeen,
			"total": fired,
		})
		r.faultsSeen = fired
	}
}

// jsonFloat renders a float JSON-safely: NaN and ±Inf are legal losses
// for diverged runs but have no JSON encoding, so they become strings.
func jsonFloat(f float64) any {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Sprintf("%v", f)
	}
	return f
}

// checkpointKey names a cell's checkpoint in the store: the cell key plus
// the suite's seed and scale name. A checkpoint written under another
// seed or scale holds another run's model, so a resume finds none and
// trains afresh.
func (s *Suite) checkpointKey(cell string) string {
	return fmt.Sprintf("%s seed=%d scale=%s", cell, s.seed, s.scale.Name)
}

// capture snapshots the run after `iteration` completed iterations: the
// weights, the optimizer state, the batch iterator, the dropout mask RNGs
// and the loss record. Restoring the snapshot replays the continuation
// bit-identically.
func (s *Suite) capture(r *trainingRun, iteration int) *resilience.Checkpoint {
	cp := &resilience.Checkpoint{
		Cell:      s.checkpointKey(r.cell),
		Iteration: iteration,
		Attempt:   r.attempt,
		LRScale:   r.lrScale,
		Params:    resilience.CaptureParams(r.net),
		Batches:   r.batches.State(),
		LastLoss:  r.lastLoss,
	}
	if c, ok := r.opt.(optim.Checkpointable); ok {
		cp.Optim = c.CaptureState()
	}
	for _, l := range r.net.Layers() {
		if d, ok := l.(*nn.Dropout); ok && d.RNG() != nil {
			cp.DropoutRNGs = append(cp.DropoutRNGs, d.RNG().State())
		}
	}
	for _, p := range r.lossHistory {
		cp.LossIters = append(cp.LossIters, p.Iteration)
		cp.LossValues = append(cp.LossValues, p.Loss)
	}
	return cp
}

// rollback restores the run to a checkpoint. The optimizer is rebuilt so
// the (possibly decayed) learning-rate scale in r.lrScale takes effect,
// then its momentum/moment state is restored; gradients are cleared in
// case the failure left a partial backward pass accumulated.
func (s *Suite) rollback(r *trainingRun, cp *resilience.Checkpoint) error {
	if err := resilience.RestoreParams(r.net, cp.Params); err != nil {
		return err
	}
	for _, p := range r.net.Params() {
		p.ZeroGrad()
	}
	opt, err := r.defaults.NewOptimizerLR(r.net.Params(), r.totalIters, r.lrScale)
	if err != nil {
		return err
	}
	if c, ok := opt.(optim.Checkpointable); ok {
		if err := c.RestoreState(cp.Optim); err != nil {
			return err
		}
	}
	r.opt = opt
	if err := r.batches.Restore(cp.Batches); err != nil {
		return err
	}
	i := 0
	for _, l := range r.net.Layers() {
		d, ok := l.(*nn.Dropout)
		if !ok || d.RNG() == nil {
			continue
		}
		if i >= len(cp.DropoutRNGs) {
			return fmt.Errorf("%w: checkpoint has %d dropout RNG states, network needs more", resilience.ErrCheckpoint, len(cp.DropoutRNGs))
		}
		d.RNG().Restore(cp.DropoutRNGs[i])
		i++
	}
	if i != len(cp.DropoutRNGs) {
		return fmt.Errorf("%w: checkpoint has %d dropout RNG states, network has %d dropout layers", resilience.ErrCheckpoint, len(cp.DropoutRNGs), i)
	}
	r.lossHistory = r.lossHistory[:0]
	for j, iter := range cp.LossIters {
		r.lossHistory = append(r.lossHistory, metrics.LossPoint{Iteration: iter, Loss: cp.LossValues[j]})
	}
	r.lastLoss = cp.LastLoss
	return nil
}
