package main

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/framework"
	"repro/internal/metrics"
)

// inferCmdConfig parameterizes one `dlbench -mode infer` invocation.
type inferCmdConfig struct {
	dataset  string
	network  string
	batches  string
	requests int
	warmup   int
}

// parseBatchSizes parses the -infer-batches CSV ("1,8,32").
func parseBatchSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		b, err := strconv.Atoi(part)
		if err != nil || b < 1 {
			return nil, fmt.Errorf("bad batch size %q in -infer-batches (want positive integers)", part)
		}
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-infer-batches is empty")
	}
	return out, nil
}

// runInferMode executes the inference sweep — every serving column (the
// three framework styles plus the int8 quantized column) across the
// requested batch sizes — and prints the latency table.
func runInferMode(ctx context.Context, w io.Writer, suite *core.Suite, cfg inferCmdConfig) error {
	batches, err := parseBatchSizes(cfg.batches)
	if err != nil {
		return err
	}
	ds, err := framework.ParseDataset(cfg.dataset)
	if err != nil {
		return err
	}
	rep, err := suite.InferSweep(ctx, core.InferConfig{
		Dataset:    ds,
		Device:     device.GPU,
		Network:    cfg.network,
		BatchSizes: batches,
		Requests:   cfg.requests,
		Warmup:     cfg.warmup,
	})
	if err != nil {
		return err
	}

	tbl := metrics.NewTable("Framework", "Network", "Batch", "p50 ms", "p95 ms", "p99 ms", "Samples/s", "Accuracy %")
	for _, c := range rep.Cells {
		tbl.AddRow(c.Framework, c.Network, fmt.Sprintf("%d", c.Batch),
			fmt.Sprintf("%.3f", c.LatencyP50MS), fmt.Sprintf("%.3f", c.LatencyP95MS),
			fmt.Sprintf("%.3f", c.LatencyP99MS), fmt.Sprintf("%.1f", c.ThroughputSPS),
			fmt.Sprintf("%.1f", c.AccuracyPct))
	}
	fmt.Fprintf(w, "Inference latency on %s (%s network)\n\n%s\n", rep.Dataset, rep.Network, tbl.String())
	return nil
}
