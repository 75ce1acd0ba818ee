// Command perfbench is dlbench's benchmark: it runs one workload in its
// own process from a seed, checks the outputs, and prints every metric by
// name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload train-cifar --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run is untraced and prints the end-to-end metrics.
// With --trace 1 it runs the workload untraced and then traced, runs the
// other workloads traced for a shorter budget (each per-layer metric is
// measured on the workload that owns it), and prints the per-layer
// metrics derived from span self times. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is the faster one (their nearest-rank median). Two set-ups
// keep the driver's 70 runs of the three workloads inside its time limit
// with a fifth to spare; three would leave a tenth.
const setupRepeats = 2

// traceDir receives the Chrome traces of traced runs, inside the
// checkout's build directory.
const traceDir = ".bench_build/traces"

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to a smoke-test size (tests only).
	tiny bool
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// procs is the benchmark's GOMAXPROCS. On a 2-vCPU guest the second
// vCPU's capacity comes and goes with the host's load: a parallel GEMM
// timed second by second swings ±25% at GOMAXPROCS=2 and holds within 1%
// at 1. One P measures the program's work instead of the neighbours'.
const procs = 1

func main() {
	runtime.GOMAXPROCS(procs)
	var opt options
	var traceFlag int
	var catalog bool
	flag.StringVar(&opt.workload, "workload", "", "workload: train-cifar, infer-b1 or serve")
	flag.Uint64Var(&opt.seed, "seed", 1, "input seed")
	flag.Float64Var(&opt.seconds, "seconds", 20, "seconds each timed phase measures")
	flag.IntVar(&traceFlag, "trace", 0, "1 for the traced per-layer run")
	flag.BoolVar(&catalog, "catalog", false, "print BENCHMARK.json as the catalog defines it and exit")
	flag.Parse()
	if catalog {
		b, err := benchmarkJSON(benchRunSeconds)
		if err != nil {
			fatalf("catalog: %v", err)
		}
		os.Stdout.Write(b)
		return
	}
	opt.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if _, ok := builders[opt.workload]; !ok {
		fatalf("unknown --workload %q (want train-cifar, infer-b1 or serve)", opt.workload)
	}
	if opt.seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	res, err := run(context.Background(), opt, os.Stdout)
	if err != nil {
		fatalf("%s: %v", opt.workload, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

// benchRunSeconds is BENCHMARK.json's run_seconds.
const benchRunSeconds = 20

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// run executes one benchmark run and returns its result. Report lines
// (host record, sample counts, tails, checks) go to out.
func run(ctx context.Context, opt options, out *os.File) (*result, error) {
	host := hostRecord()
	hb, _ := json.Marshal(host)
	fmt.Fprintf(out, "host %s\n", hb)
	mode := "untraced"
	if opt.trace {
		mode = "traced"
	}
	fmt.Fprintf(out, "workload %s seed %d seconds %g mode %s\n", opt.workload, opt.seed, opt.seconds, mode)

	chk := &checks{}
	var metrics map[string]float64
	var err error
	if opt.trace {
		metrics, err = tracedRun(ctx, opt, chk, out)
	} else {
		metrics, err = untracedRun(ctx, opt, chk, out)
	}
	if err != nil {
		return nil, err
	}
	declared := endToEnd()
	if opt.trace {
		declared = perLayer()
	}
	res := &result{Metrics: make(map[string]metricValue, len(declared))}
	for _, m := range declared {
		v, ok := metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			chk.fail("metric %s was not measured", m.Name)
			v = 0
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for _, e := range chk.opErrs {
		fmt.Fprintf(out, "operation FAILED: %s\n", e)
	}
	for _, f := range chk.failures {
		fmt.Fprintf(out, "check FAILED: %s\n", f)
	}
	fmt.Fprintf(out, "checks: %d passed, %d failed\n", chk.passed, len(chk.failures))
	// A failed check counts as a failed operation.
	res.Attempted = max(chk.attempted, 1)
	res.Failed = chk.failed + len(chk.failures)
	res.Correct = res.Failed == 0
	return res, nil
}

// untracedRun sets the workload up setupRepeats times, then measures its
// timed phase with tracing off and returns the end-to-end metrics.
func untracedRun(ctx context.Context, opt options, chk *checks, out *os.File) (map[string]float64, error) {
	var setups []float64
	var w bench
	var first string
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
			w = nil
		}
		runtime.GC()
		start := time.Now()
		b, err := builders[opt.workload](ctx, opt, nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		w = b
		fp := w.fingerprint()
		if i == 0 {
			first = fp
		} else {
			chk.expect(fp == first, "setup %d repeats setup 0 bit for bit (%s vs %s)", i, fp, first)
		}
	}
	defer w.close()
	fmt.Fprintf(out, "setup_s samples %v\n", setups)

	ph := runPhase(ctx, w.columns(), opt.seconds, nil)
	chk.addPhase(ph)
	w.check(chk)

	m := map[string]float64{
		"setup_s":      median(setups),
		"peak_rss_mib": peakRSSMiB(),
	}
	for _, c := range allCols {
		m["op_ms."+c] = percentile(ph.samples[c], opPercentile)
	}
	reportPhase(out, opt.workload, ph)
	return m, nil
}

// reportPhase prints each column's sample count, its op_ms percentile,
// median, and the nearest-rank tails that have at least ten samples
// beyond them.
func reportPhase(out *os.File, workload string, ph *phase) {
	for _, c := range allCols {
		s := ph.samples[c]
		fmt.Fprintf(out, "%s op_ms.%s n=%d p%d %.4f ms median %.4f ms", workload, c, len(s), opPercentile, percentile(s, opPercentile), median(s))
		for _, p := range []float64{90, 99} {
			if tailSupported(len(s), p) {
				fmt.Fprintf(out, " p%g %.4f ms", p, percentile(s, p))
			}
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "%s attempted %d failed %d\n", workload, ph.attempted, ph.failed)
}

// tracedRun measures the named workload untraced and then traced (for
// the tracing overhead and the whole-run metrics), then runs every other
// workload traced for a shorter budget, and derives the per-layer metrics
// from each metric's owning workload.
func tracedRun(ctx context.Context, opt options, chk *checks, out *os.File) (map[string]float64, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	metrics := map[string]float64{}
	measured := map[string]map[string]float64{} // workload -> metric -> value

	order := []string{opt.workload}
	for _, wi := range workloads {
		if wi.Name != opt.workload {
			order = append(order, wi.Name)
		}
	}
	for _, name := range order {
		tr := newTracer()
		before := readRuntime()
		w, err := builders[name](ctx, opt, tr)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		lm := map[string]float64{}
		if name == opt.workload {
			runtime.GC()
			plain := runPhase(ctx, w.columns(), opt.seconds, nil)
			// Set-up plus the untraced phase: a phase alone may run no GC
			// cycle at all on a large heap.
			readRuntime().sub(before).into(lm)
			chk.addPhase(plain)
			reportPhase(out, name+" untraced", plain)

			runtime.GC()
			traced := runPhase(ctx, w.columns(), opt.seconds, tr)
			chk.addPhase(traced)
			reportPhase(out, name+" traced", traced)
			lm["trace.overhead_pct"] = overheadPct(plain, traced)
		} else {
			runtime.GC()
			ph := runPhase(ctx, w.columns(), math.Max(opt.seconds/4, 1), tr)
			chk.addPhase(ph)
		}
		w.check(chk)
		spanMedians(tr, lm)
		w.layerMetrics(lm)
		w.close()
		measured[name] = lm
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d-%s.json", opt.workload, opt.seed, name))
		if err := tr.writeChrome(path); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(out, "trace %s: %d spans -> %s\n", name, len(tr.spans), path)
	}
	if err := gemmCeilings(measured[wTrain], measured[wInfer]); err != nil {
		return nil, fmt.Errorf("gemm ceilings: %w", err)
	}

	for _, m := range perLayer() {
		src := m.On
		if src == onAll {
			src = opt.workload
		}
		if v, ok := measured[src][m.Name]; ok {
			metrics[m.Name] = v
			continue
		}
		for _, wi := range workloads { // an all-workload metric the named one lacks
			if v, ok := measured[wi.Name][m.Name]; ok {
				metrics[m.Name] = v
				break
			}
		}
	}
	// Ratios to the GEMM ceiling need both numbers from the same run.
	for _, c := range floatCols {
		if g := metrics["tensor.gemm_gflops"]; g > 0 {
			metrics["nn.conv_ceiling_pct."+c] = 100 * metrics["nn.conv_gflops."+c] / g
		}
	}
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "layer %s %.6g\n", k, metrics[k])
	}
	return metrics, nil
}

// overheadPct is the traced run's operation time over the untraced
// one's (both at opPercentile), as a percentage above it, averaged over
// the columns.
func overheadPct(plain, traced *phase) float64 {
	var sum float64
	var n int
	for _, c := range allCols {
		p, t := percentile(plain.samples[c], opPercentile), percentile(traced.samples[c], opPercentile)
		if p > 0 && t > 0 {
			sum += 100 * (t/p - 1)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// spanMedians turns the tracer's per-operation self times and recorded
// values into per-layer metrics: for each key, the median over the
// operations that recorded it, in the catalog unit of the key.
func spanMedians(tr *tracer, into map[string]float64) {
	for key, ds := range tr.selfTimes() {
		into[key] = median(durMS(ds)) / unitScaleMS(key)
	}
	for key, vs := range tr.values {
		into[key] = median(vs)
	}
}

// unitScaleMS is how many milliseconds one unit of the key's metric is;
// spans whose key is not a catalog metric are kept in milliseconds.
func unitScaleMS(key string) float64 {
	switch layerUnits[key] {
	case "us":
		return 1e-3
	case "s":
		return 1e3
	}
	return 1
}

var layerUnits = func() map[string]string {
	u := make(map[string]string)
	for _, m := range perLayer() {
		u[m.Name] = m.Unit
	}
	return u
}()
