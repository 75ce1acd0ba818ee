package main

import (
	"bytes"
	"encoding/json"
)

// The benchmark's workloads, in the order BENCHMARK.json lists them.
const (
	wTrain = "train-cifar"
	wInfer = "infer-b1"
	wServe = "serve"
)

type workloadInfo struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadInfo{
	{wTrain, "the paper's heaviest cells: CIFAR-10 training under each framework's Table III defaults, where conv GEMM, LRN, pooling and the optimizer dominate"},
	{wInfer, "batch-1 Predict on the trained MNIST nets in four columns: per-request dispatch, small-M GEMMs and the int8 kernel, with no backward pass"},
	{wServe, "the only workload through the server: admission, journal fsync, queue, per-job tracer, profile export and core.InferSweep per job"},
}

// Serving columns: the three framework executors plus the int8 column.
const (
	colTF    = "tf"
	colCaffe = "caffe"
	colTorch = "torch"
	colInt8  = "int8"
)

var (
	allCols   = []string{colTF, colCaffe, colTorch, colInt8}
	floatCols = []string{colTF, colCaffe, colTorch}
)

// Layer kinds the nn metrics sum over.
var (
	kinds     = []string{"conv", "dense", "pool", "other"}
	int8Kinds = []string{"conv", "dense", "other"}
)

// onAll marks a per-layer metric that every workload measures.
const onAll = "all"

// metric is one catalog entry. Bound is set for end-to-end metrics only;
// Moves and On record, for a per-layer metric, the end-to-end metrics it
// should move and the workload that measures it.
type metric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  []string
	On     string
}

func opMS(cols ...string) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = "op_ms." + c
	}
	return out
}

// endToEnd lists the metrics an untraced run prints, on every workload.
func endToEnd() []metric {
	ms := []metric{
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
		{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.15},
	}
	for _, c := range allCols {
		ms = append(ms, metric{Name: "op_ms." + c, Unit: "ms", Better: "lower", Bound: 0.25})
	}
	return ms
}

// perLayer lists the metrics a traced run prints, with the end-to-end
// metric each should move and the workload that measures it.
func perLayer() []metric {
	var ms []metric
	add := func(name, unit, better, on string, moves ...string) {
		ms = append(ms, metric{Name: name, Unit: unit, Better: better, On: on, Moves: moves})
	}
	all := opMS(allCols...)

	add("tensor.gemm_gflops", "GFLOP/s", "higher", wTrain, "op_ms.tf", "op_ms.caffe")
	add("tensor.gemm_b1_gflops", "GFLOP/s", "higher", wInfer, "op_ms.tf")
	add("tensor.int8_gemm_gops", "GOP/s", "higher", wInfer, "op_ms.int8")
	add("tensor.arena_hit_ratio", "ratio", "higher", wTrain, append([]string{"peak_rss_mib"}, all...)...)
	add("tensor.arena_gets", "count", "lower", wTrain, append([]string{"peak_rss_mib"}, all...)...)

	for _, dir := range []string{"fwd", "bwd"} {
		for _, k := range kinds {
			for _, c := range floatCols {
				add("nn."+dir+"_ms."+k+"."+c, "ms", "lower", wTrain, "op_ms."+c)
			}
		}
	}
	for _, c := range []string{colTF, colCaffe, colTorch} {
		add("nn.conv_gflops."+c, "GFLOP/s", "higher", wTrain, "op_ms."+c)
	}
	for _, c := range floatCols {
		add("nn.conv_ceiling_pct."+c, "%", "higher", wTrain, "op_ms."+c)
	}
	for _, k := range kinds {
		for _, c := range floatCols {
			add("nn.fwd_us."+k+"."+c, "us", "lower", wInfer, "op_ms."+c)
		}
	}
	for _, k := range int8Kinds {
		add("nn.int8_stage_us."+k, "us", "lower", wInfer, "op_ms.int8")
	}

	for _, c := range floatCols {
		add("engine.step_ms."+c, "ms", "lower", wTrain, "op_ms."+c)
	}
	for _, c := range floatCols {
		add("engine.overhead_ms."+c, "ms", "lower", wTrain, "op_ms."+c)
	}
	for _, c := range allCols {
		add("engine.predict_us."+c, "us", "lower", wInfer, "op_ms."+c)
	}
	for _, c := range floatCols {
		add("engine.predict_overhead_us."+c, "us", "lower", wInfer, "op_ms."+c)
	}
	for _, c := range allCols {
		add("engine.build_ms."+c, "ms", "lower", wServe, "op_ms."+c, "setup_s")
	}
	for _, c := range floatCols {
		add("engine.train_dispatches."+c, "count", "lower", wTrain, "op_ms."+c)
	}
	for _, c := range allCols {
		add("engine.infer_dispatches."+c, "count", "lower", wInfer, "op_ms."+c)
	}

	for _, c := range floatCols {
		add("optim.step_ms."+c, "ms", "lower", wTrain, "op_ms."+c)
	}
	for _, c := range floatCols {
		add("resilience.check_ms."+c, "ms", "lower", wTrain, "op_ms."+c)
	}
	for _, c := range floatCols {
		add("data.next_ms."+c, "ms", "lower", wTrain, "op_ms."+c)
	}
	for _, c := range floatCols {
		add("framework.prep_ms."+c, "ms", "lower", wTrain, "op_ms."+c)
	}
	add("data.synth_s", "s", "lower", onAll, "setup_s")
	add("framework.build_ms", "ms", "lower", onAll, "setup_s")

	for _, c := range allCols {
		add("core.sweep_ms."+c, "ms", "lower", wServe, "op_ms."+c)
	}
	for _, c := range allCols {
		add("core.eval_ms."+c, "ms", "lower", wServe, "op_ms."+c)
	}

	add("server.submit_ms", "ms", "lower", wServe, all...)
	add("server.fsync_ms", "ms", "lower", wServe, all...)
	add("server.queue_ms", "ms", "lower", wServe, all...)
	add("server.stream_lag_ms", "ms", "lower", wServe, all...)
	add("server.profile_ms", "ms", "lower", wServe, all...)
	add("server.accept_ratio", "ratio", "higher", wServe, all...)
	add("server.retries", "count", "lower", wServe, all...)
	for _, c := range allCols {
		add("server.exec_ms."+c, "ms", "lower", wServe, "op_ms."+c)
	}
	for _, c := range allCols {
		add("server.overhead_ms."+c, "ms", "lower", wServe, "op_ms."+c)
	}

	add("go.gc_cycles", "count", "lower", onAll, append([]string{"peak_rss_mib"}, all...)...)
	add("go.gc_pause_ms", "ms", "lower", onAll, all...)
	add("go.alloc_mib", "MiB", "lower", onAll, "peak_rss_mib")
	add("trace.overhead_pct", "%", "lower", onAll)
	return ms
}

// benchmarkJSON renders BENCHMARK.json from the catalog; the repository
// root's copy must equal it byte for byte (see catalog_test.go).
func benchmarkJSON(runSeconds int) ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadInfo `json:"workloads"`
		EndToEnd   []e2e          `json:"end_to_end"`
		PerLayer   []layer        `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, m := range endToEnd() {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer() {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
