package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/framework"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Inference benchmark mode: the serving-side counterpart of the training
// matrix. Where the training mode measures time-to-accuracy, this mode
// measures per-request latency (p50/p95/p99) and throughput across batch
// sizes — batch 1 is the interactive-serving case where executor
// dispatch overhead and kernel shape (a 1×k GEMM cannot fill the FMA
// tile) dominate, which is exactly where the int8 path earns its keep.

// DefaultInferBatchSizes are the request batch sizes an inference sweep
// measures when the caller does not override them.
var DefaultInferBatchSizes = []int{1, 8, 32}

// InferConfig parameterizes one inference sweep.
type InferConfig struct {
	// Dataset selects the workload; Device the modeled device variant.
	Dataset framework.DatasetID
	Device  device.Kind
	// Network selects the served model: "default" (each framework column
	// serves its own paper architecture, trained via the suite cache) or
	// "resnet" (every column serves the same trained ResNet cell, so
	// latency differences isolate executor scheduling). Empty means
	// "default".
	Network string
	// BatchSizes are the request batch sizes; DefaultInferBatchSizes when
	// empty.
	BatchSizes []int
	// Columns restricts the sweep to a subset of the serving columns
	// (framework.InferColumns when empty). A serve-daemon inference job
	// measures one column per request, so it does not pay for the other
	// three.
	Columns []framework.ID
	// Requests is the number of timed requests per (column, batch) point;
	// Warmup the untimed requests that precede them. Both have serving
	// defaults when zero.
	Requests int
	Warmup   int
}

// InferCell is the measured outcome of one (column, batch) point of an
// inference sweep.
type InferCell struct {
	// Framework is the serving column ("TF", "Caffe", "Torch", "Int8");
	// Network the served model plan ("default" or "resnet").
	Framework string
	Network   string
	Dataset   string
	Batch     int
	Requests  int
	// Nearest-rank latency percentiles (metrics.Percentile) over the
	// timed requests, in milliseconds.
	LatencyP50MS float64
	LatencyP95MS float64
	LatencyP99MS float64
	// ThroughputSPS is samples served per second over the timed window.
	ThroughputSPS float64
	// AccuracyPct is the column's full test-set accuracy — the quantized
	// column must hold accuracy while cutting latency.
	AccuracyPct float64
	// WallSeconds is the point's total timed wall clock.
	WallSeconds float64
}

// InferReport is the outcome of one inference sweep.
type InferReport struct {
	Dataset string
	Network string
	Cells   []InferCell
}

// Cell returns the sweep cell for (framework short name, batch), or nil.
func (r *InferReport) Cell(fw string, batch int) *InferCell {
	for i := range r.Cells {
		if r.Cells[i].Framework == fw && r.Cells[i].Batch == batch {
			return &r.Cells[i]
		}
	}
	return nil
}

// inferColumn is one serving column: an executor style over a trained
// network with its training-time preprocessing.
type inferColumn struct {
	fw   framework.ID
	net  *nn.Network
	prep framework.Preprocessing
}

// InferSweep measures inference latency and throughput for every serving
// column — the three framework styles plus the int8 quantized column —
// across cfg.BatchSizes. Float columns serve models trained through the
// suite's cache (so a sweep after a training run reuses its cells); the
// int8 column freezes the TensorFlow-style model.
func (s *Suite) InferSweep(ctx context.Context, cfg InferConfig) (*InferReport, error) {
	if len(cfg.BatchSizes) == 0 {
		cfg.BatchSizes = DefaultInferBatchSizes
	}
	for _, b := range cfg.BatchSizes {
		if b < 1 {
			return nil, fmt.Errorf("%w: inference batch size %d", ErrConfig, b)
		}
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 40
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = 5
	}
	network := cfg.Network
	if network == "" {
		network = "default"
	}
	sweepSpan := s.Obs.Span("infer.sweep", "suite")
	defer sweepSpan.End()
	s.Obs.Emit("infer.start", map[string]any{
		"dataset": cfg.Dataset.String(), "network": network, "batches": cfg.BatchSizes,
	})

	_, testSet, err := s.Datasets(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	columns, err := s.inferColumns(ctx, cfg, network)
	if err != nil {
		return nil, err
	}

	maxBatch := 0
	for _, b := range cfg.BatchSizes {
		if b > maxBatch {
			maxBatch = b
		}
	}
	report := &InferReport{Dataset: cfg.Dataset.String(), Network: network}
	for _, col := range columns {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		exec, err := framework.NewTracedExecutor(col.fw, col.net, maxBatch, s.Obs)
		if err != nil {
			return nil, err
		}
		conf, err := s.evaluate(ctx, exec, testSet, col.prep)
		if err != nil {
			return nil, fmt.Errorf("core: infer eval %v: %w", col.fw, err)
		}
		acc := conf.Accuracy()
		for _, b := range cfg.BatchSizes {
			cell, err := s.measureInferPoint(ctx, exec, testSet, col.prep, b, cfg)
			if err != nil {
				return nil, fmt.Errorf("core: infer %v batch %d: %w", col.fw, b, err)
			}
			cell.Framework = col.fw.Short()
			cell.Network = network
			cell.Dataset = cfg.Dataset.String()
			cell.AccuracyPct = acc
			report.Cells = append(report.Cells, cell)
			s.progress("infer %-6s %-7s batch %-3d p50 %.3fms p95 %.3fms p99 %.3fms %.0f samples/s acc %.1f%%",
				cell.Framework, network, b, cell.LatencyP50MS, cell.LatencyP95MS, cell.LatencyP99MS,
				cell.ThroughputSPS, acc)
			s.Obs.Emit("infer.cell", map[string]any{
				"framework": cell.Framework, "batch": b,
				"p50_ms": cell.LatencyP50MS, "p95_ms": cell.LatencyP95MS, "p99_ms": cell.LatencyP99MS,
				"throughput_sps": cell.ThroughputSPS, "accuracy_pct": acc,
			})
		}
		// Serving buffers for this column are dead weight for the next one.
		col.net.ReleaseBuffers()
		tensor.ArenaRelease()
		runtime.GC()
	}
	return report, nil
}

// inferColumns assembles the serving columns for the sweep, restricted
// to cfg.Columns when set.
func (s *Suite) inferColumns(ctx context.Context, cfg InferConfig, network string) ([]inferColumn, error) {
	want := cfg.Columns
	if len(want) == 0 {
		want = framework.InferColumns
	}
	serving := make(map[framework.ID]bool, len(want))
	for _, fw := range want {
		ok := false
		for _, known := range framework.InferColumns {
			if fw == known {
				ok = true
			}
		}
		if !ok {
			return nil, fmt.Errorf("%w: inference column %v", ErrConfig, fw)
		}
		serving[fw] = true
	}
	switch network {
	case "default":
		// Each float column serves its own paper architecture; the int8
		// column freezes the TensorFlow-style model (it is the graph
		// executor's network that deployment pipelines quantize) — so an
		// int8-only sweep still trains the TF cell as its source.
		var cols []inferColumn
		var tfNet *nn.Network
		for _, fw := range framework.All {
			needed := serving[fw] || (fw == framework.TensorFlow && serving[framework.Int8])
			if !needed {
				continue
			}
			spec := RunSpec{Framework: fw, SettingsFW: fw, SettingsDS: cfg.Dataset, Data: cfg.Dataset, Device: cfg.Device}
			tm, err := s.model(ctx, spec)
			if err != nil {
				return nil, err
			}
			if serving[fw] {
				cols = append(cols, inferColumn{fw: fw, net: tm.net, prep: framework.PreprocessingFor(fw, cfg.Dataset)})
			}
			if fw == framework.TensorFlow {
				tfNet = tm.net
			}
		}
		if serving[framework.Int8] {
			cols = append(cols, inferColumn{
				fw: framework.Int8, net: tfNet,
				prep: framework.PreprocessingFor(framework.TensorFlow, cfg.Dataset),
			})
		}
		return cols, nil
	case "resnet":
		// Every column serves the same trained ResNet weights, so latency
		// differences isolate executor scheduling — and the residual's
		// skip fan-out actually exercises the graph executor's dataflow.
		net, err := s.resnetModel(ctx, cfg.Dataset)
		if err != nil {
			return nil, err
		}
		prep := framework.PreprocessingFor(framework.TensorFlow, cfg.Dataset)
		var cols []inferColumn
		for _, fw := range framework.InferColumns {
			if serving[fw] {
				cols = append(cols, inferColumn{fw: fw, net: net, prep: prep})
			}
		}
		return cols, nil
	default:
		return nil, fmt.Errorf("%w: inference network %q (want default|resnet)", ErrConfig, network)
	}
}

// resnetModel returns (training on first use) the shared ResNet cell for
// ds, trained under the graph executor with the TensorFlow defaults for
// the dataset.
func (s *Suite) resnetModel(ctx context.Context, ds framework.DatasetID) (*nn.Network, error) {
	s.mu.Lock()
	if net, ok := s.resnets[ds]; ok {
		s.mu.Unlock()
		return net, nil
	}
	s.mu.Unlock()

	defaults, err := framework.Defaults(framework.TensorFlow, ds)
	if err != nil {
		return nil, err
	}
	in, err := framework.InputFor(ds)
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(s.seed ^ 0x5e51d0a1)
	net, err := framework.BuildResNet(in, framework.NetworkOptions{RNG: rng.Split()})
	if err != nil {
		return nil, err
	}
	if err := nn.InitNetwork(net, defaults.Init, rng.Split()); err != nil {
		return nil, err
	}
	trainSet, _, err := s.Datasets(ds)
	if err != nil {
		return nil, err
	}
	r, err := s.newRun("resnet TF on "+ds.String(), framework.TensorFlow, ds, defaults, net, trainSet, rng)
	if err != nil {
		return nil, err
	}
	span := s.Obs.Span("infer.resnet.train", "suite")
	defer span.End()
	s.progress("train resnet on %-8s (%d epochs, %d iters) for inference sweep", ds, r.epochs, r.totalIters)
	if err := s.runIters(ctx, r, 0); err != nil {
		return nil, err
	}
	net.ReleaseBuffers()
	s.mu.Lock()
	s.resnets[ds] = net
	s.mu.Unlock()
	return net, nil
}

// evaluate scores exec over the full test set at the standard evaluation
// batch size, each batch through the column's input pipeline. It is the
// suite's only scoring loop: training cells, the noise sweep and every
// inference column use it.
func (s *Suite) evaluate(ctx context.Context, exec engine.Executor, testSet *data.Dataset, prep framework.Preprocessing) (*metrics.Confusion, error) {
	conf, err := metrics.NewConfusion(testSet.Classes)
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < testSet.Len(); lo += evalBatchSize {
		hi := min(lo+evalBatchSize, testSet.Len())
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = lo + i
		}
		x, labels, err := testSet.Slice(idx)
		if err != nil {
			return nil, err
		}
		framework.ApplyPreprocessingObs(prep, x, s.Obs)
		preds, err := exec.Predict(ctx, x)
		if err != nil {
			return nil, err
		}
		for i, p := range preds {
			if err := conf.Add(labels[i], p); err != nil {
				return nil, err
			}
		}
	}
	return conf, nil
}

// measureInferPoint times cfg.Requests single requests of batch size b
// against the executor and summarizes their latency distribution.
// Request tensors are materialized and preprocessed outside the timed
// region — a serving measurement times the model, not the data loader.
func (s *Suite) measureInferPoint(ctx context.Context, exec engine.Executor, testSet *data.Dataset, prep framework.Preprocessing, b int, cfg InferConfig) (InferCell, error) {
	reqs, err := s.requestBatches(testSet, prep, b, cfg.Requests)
	if err != nil {
		return InferCell{}, err
	}
	for w := 0; w < cfg.Warmup; w++ {
		if err := ctx.Err(); err != nil {
			return InferCell{}, err
		}
		if _, err := exec.Predict(ctx, reqs[w%len(reqs)]); err != nil {
			return InferCell{}, err
		}
	}
	lat := make([]float64, 0, cfg.Requests)
	var total time.Duration
	for r := 0; r < cfg.Requests; r++ {
		if err := ctx.Err(); err != nil {
			return InferCell{}, err
		}
		start := time.Now()
		if _, err := exec.Predict(ctx, reqs[r%len(reqs)]); err != nil {
			return InferCell{}, err
		}
		d := time.Since(start)
		total += d
		lat = append(lat, float64(d.Nanoseconds())/1e6)
	}
	cell := InferCell{
		Batch:        b,
		Requests:     cfg.Requests,
		LatencyP50MS: metrics.Percentile(lat, 50),
		LatencyP95MS: metrics.Percentile(lat, 95),
		LatencyP99MS: metrics.Percentile(lat, 99),
		WallSeconds:  total.Seconds(),
	}
	if total > 0 {
		cell.ThroughputSPS = float64(b*cfg.Requests) / total.Seconds()
	}
	return cell, nil
}

// requestBatches materializes up to count distinct preprocessed request
// tensors of batch size b, cycling through the test set.
func (s *Suite) requestBatches(testSet *data.Dataset, prep framework.Preprocessing, b, count int) ([]*tensor.Tensor, error) {
	distinct := testSet.Len() / b
	if distinct < 1 {
		distinct = 1
	}
	if distinct > count {
		distinct = count
	}
	// Cap the materialized set so huge batch sweeps do not hold
	// count×batch samples live at once; the timed loop cycles them.
	if distinct > 16 {
		distinct = 16
	}
	out := make([]*tensor.Tensor, 0, distinct)
	for r := 0; r < distinct; r++ {
		idx := make([]int, b)
		for i := range idx {
			idx[i] = (r*b + i) % testSet.Len()
		}
		x, _, err := testSet.Slice(idx)
		if err != nil {
			return nil, err
		}
		framework.ApplyPreprocessingObs(prep, x, s.Obs)
		out = append(out, x)
	}
	return out, nil
}
