// Package monitor is the resource-utilization sampler of the benchmark
// suite. The source paper reports CPU/GPU utilization and memory
// footprint alongside training time and accuracy; monitor supplies that
// metric family for this reproduction: a low-overhead, fixed-interval
// sampler of process resource usage that runs for the life of a sweep
// or a serve daemon.
//
// Each sample records heap in-use and heap live bytes (runtime/metrics),
// the goroutine count, and process CPU utilization in percent — read
// from /proc/self/stat on Linux, with a portable runtime/metrics
// fallback elsewhere (see cpu.go). GC pause p50/p99 are computed per
// interval by differencing the cumulative runtime pause histogram.
//
// The sampler keeps only the latest sample (read by /status and the
// serve daemon's load shedding). When a Tracer is wired in, every sample
// also flows into the observability surface: live monitor.* gauges
// (exported on /metrics), and monitor.sample events in the typed event
// log, timestamped on the tracer's span clock so utilization correlates
// with execution phases in the JSONL log and the Chrome trace export.
//
// Like internal/obs, the disabled state is a nil *Sampler: every method
// is safe and near-free on nil, and the obs overhead guard covers the
// disabled-monitor primitives.
package monitor

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/obs"
)

// DefaultInterval is the sampling period when Config leaves it zero:
// fine enough to catch per-cell utilization at test scale (cells run
// seconds), coarse enough that sampling cost is noise.
const DefaultInterval = 50 * time.Millisecond

// runtime/metrics names the sampler reads. All exist since Go 1.22 and
// are listed in internal/monitor's build-time probe of metrics.All.
const (
	mHeapObjects = "/memory/classes/heap/objects:bytes" // live heap (≈ MemStats.HeapAlloc)
	mHeapUnused  = "/memory/classes/heap/unused:bytes"  // in-use spans minus live
	mGCCycles    = "/gc/cycles/total:gc-cycles"
	mGCPauses    = "/sched/pauses/total/gc:seconds"
)

// Sample is one point of the resource time series. NS is nanoseconds
// since the sampler's epoch on the monotonic clock.
type Sample struct {
	NS int64 `json:"ts_ns"`
	// HeapInuseBytes is memory in in-use heap spans (live objects plus
	// unused space inside spans); HeapLiveBytes is live objects only.
	HeapInuseBytes uint64 `json:"heap_inuse_bytes"`
	HeapLiveBytes  uint64 `json:"heap_live_bytes"`
	Goroutines     int64  `json:"goroutines"`
	// CPUPct is process CPU over the interval since the previous sample,
	// in percent of one core — above 100 means more than one core busy.
	// Zero on the first sample (no interval to rate over).
	CPUPct float64 `json:"cpu_pct"`
	// GCCount is the number of GC cycles completed in the interval since
	// the previous sample, and GCPauseP50NS/GCPauseP99NS the pause
	// quantiles of exactly those cycles (differenced from the cumulative
	// runtime pause histogram; zero when the interval saw no GC). All
	// scalars: Sample stays comparable.
	GCCount      int64 `json:"gc_count"`
	GCPauseP50NS int64 `json:"gc_pause_p50_ns"`
	GCPauseP99NS int64 `json:"gc_pause_p99_ns"`
}

// Config parameterizes New.
type Config struct {
	// Interval is the sampling period (DefaultInterval when zero).
	Interval time.Duration
	// Tracer, when non-nil, receives live monitor.* gauges and
	// monitor.sample events. Events are timestamped by the tracer on its
	// own span clock, which is what correlates utilization with
	// execution phases in the JSONL log and the Chrome trace.
	Tracer *obs.Tracer
}

// Sampler samples process resource usage at a fixed interval. The zero
// value is not usable; construct with New. All methods are safe on a nil
// receiver, which is the disabled state.
type Sampler struct {
	interval time.Duration
	tracer   *obs.Tracer
	epoch    time.Time
	cpu      cpuReader

	mu        sync.Mutex
	latest    Sample
	hasLatest bool
	prevWall  time.Time
	prevCPU   float64
	prevOK    bool
	// prevGCCounts/prevGCCycles are the per-tick GC differencing bases.
	prevGCCounts []uint64
	prevGCCycles uint64
	prevGCOK     bool
	// reads is the reusable runtime/metrics batch; guarded by mu.
	reads []metrics.Sample

	// gauge handles are resolved once — the sampling loop must not take
	// the tracer's registry lock per tick.
	gHeapInuse, gHeapLive, gGoroutines, gCPU *obs.Gauge
	gGCCycles, gGCPauseP50, gGCPauseP99      *obs.Gauge

	lifecycle sync.Mutex
	stop      chan struct{}
	done      chan struct{}
}

// New constructs a sampler. Call Start to begin fixed-interval
// collection; SampleOnce also works without Start for synchronous use.
func New(cfg Config) *Sampler {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	s := &Sampler{
		interval: cfg.Interval,
		tracer:   cfg.Tracer,
		epoch:    time.Now(),
		cpu:      newCPUReader(),
		reads: []metrics.Sample{
			{Name: mHeapObjects},
			{Name: mHeapUnused},
		},
	}
	if cfg.Tracer != nil {
		s.gHeapInuse = cfg.Tracer.Gauge("monitor.heap_inuse_bytes")
		s.gHeapLive = cfg.Tracer.Gauge("monitor.heap_live_bytes")
		s.gGoroutines = cfg.Tracer.Gauge("monitor.goroutines")
		s.gCPU = cfg.Tracer.Gauge("monitor.cpu_pct")
		s.gGCCycles = cfg.Tracer.Gauge("monitor.gc_cycles_total")
		s.gGCPauseP50 = cfg.Tracer.Gauge("monitor.gc_pause_p50_ns")
		s.gGCPauseP99 = cfg.Tracer.Gauge("monitor.gc_pause_p99_ns")
	}
	return s
}

// Start launches the fixed-interval sampling goroutine. Safe to call on
// nil (no-op) and idempotent while running.
func (s *Sampler) Start() {
	if s == nil {
		return
	}
	s.lifecycle.Lock()
	defer s.lifecycle.Unlock()
	if s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.loop(s.stop, s.done)
}

// Stop halts the sampling goroutine and waits for it to exit. Safe on
// nil and when never started; Start may be called again afterwards.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.lifecycle.Lock()
	defer s.lifecycle.Unlock()
	if s.stop == nil {
		return
	}
	close(s.stop)
	<-s.done
	s.stop, s.done = nil, nil
}

func (s *Sampler) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	// An immediate first sample establishes the CPU rate basis so the
	// first ticker sample already carries a meaningful CPUPct.
	s.SampleOnce()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			s.SampleOnce()
		}
	}
}

// SampleOnce takes one synchronous sample, keeps it as the latest, and
// feeds the tracer's gauges and event log. Returns the sample. Safe on
// nil (zero Sample). Concurrent calls serialize on the sampler's lock.
func (s *Sampler) SampleOnce() Sample {
	if s == nil {
		return Sample{}
	}
	now := time.Now()
	cpuSecs, cpuOK := s.cpu.processCPUSeconds()
	goroutines := int64(runtime.NumGoroutine())
	gcCounts, gcCycles := readGCPauseHistogram()

	s.mu.Lock()
	metrics.Read(s.reads)
	live := s.reads[0].Value.Uint64()
	unused := s.reads[1].Value.Uint64()
	smp := Sample{
		NS:             now.Sub(s.epoch).Nanoseconds(),
		HeapLiveBytes:  live,
		HeapInuseBytes: live + unused,
		Goroutines:     goroutines,
	}
	if cpuOK && s.prevOK {
		if dt := now.Sub(s.prevWall).Seconds(); dt > 0 {
			smp.CPUPct = 100 * (cpuSecs - s.prevCPU) / dt
			if smp.CPUPct < 0 {
				smp.CPUPct = 0
			}
		}
	}
	if cpuOK {
		s.prevWall, s.prevCPU, s.prevOK = now, cpuSecs, true
	}
	if s.prevGCOK {
		smp.GCCount = int64(gcCycles - s.prevGCCycles)
		if smp.GCCount > 0 {
			diff := diffCounts(gcCounts, s.prevGCCounts)
			smp.GCPauseP50NS = pauseQuantileNS(diff, 0.50)
			smp.GCPauseP99NS = pauseQuantileNS(diff, 0.99)
		}
	}
	s.prevGCCounts, s.prevGCCycles, s.prevGCOK = gcCounts, gcCycles, true
	s.latest, s.hasLatest = smp, true
	s.mu.Unlock()

	s.gHeapInuse.Set(float64(smp.HeapInuseBytes))
	s.gHeapLive.Set(float64(smp.HeapLiveBytes))
	s.gGoroutines.Set(float64(smp.Goroutines))
	s.gCPU.Set(smp.CPUPct)
	s.gGCCycles.Set(float64(gcCycles))
	if smp.GCCount > 0 {
		// Pause gauges hold the quantiles of the last interval that saw a
		// GC — a tick with no cycles must not wipe them to zero.
		s.gGCPauseP50.Set(float64(smp.GCPauseP50NS))
		s.gGCPauseP99.Set(float64(smp.GCPauseP99NS))
	}
	s.tracer.Emit("monitor.sample", map[string]any{
		"heap_inuse_bytes": smp.HeapInuseBytes,
		"heap_live_bytes":  smp.HeapLiveBytes,
		"goroutines":       smp.Goroutines,
		"cpu_pct":          smp.CPUPct,
		"gc_count":         smp.GCCount,
		"gc_pause_p50_ns":  smp.GCPauseP50NS,
		"gc_pause_p99_ns":  smp.GCPauseP99NS,
	})
	return smp
}

// Latest returns the most recent sample. ok is false on a nil sampler
// or before the first sample.
func (s *Sampler) Latest() (smp Sample, ok bool) {
	if s == nil {
		return Sample{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latest, s.hasLatest
}

// gcPauseBuckets holds the runtime's fixed pause-histogram bucket
// boundaries, captured on first read (the runtime never changes them
// within a process).
var (
	gcBucketsOnce sync.Once
	gcBuckets     []float64
)

// readGCPauseHistogram reads the cumulative GC pause histogram and the
// total GC cycle count, returning a private copy of the bucket counts.
func readGCPauseHistogram() ([]uint64, uint64) {
	reads := []metrics.Sample{{Name: mGCPauses}, {Name: mGCCycles}}
	metrics.Read(reads)
	h := reads[0].Value.Float64Histogram()
	counts := make([]uint64, len(h.Counts))
	copy(counts, h.Counts)
	gcBucketsOnce.Do(func() {
		gcBuckets = make([]float64, len(h.Buckets))
		copy(gcBuckets, h.Buckets)
	})
	return counts, reads[1].Value.Uint64()
}

// diffCounts subtracts base from cur element-wise (cur when base is nil
// or mismatched — the histograms are cumulative, so counts never
// decrease and lengths never change within a process).
func diffCounts(cur, base []uint64) []uint64 {
	if len(base) != len(cur) {
		return cur
	}
	out := make([]uint64, len(cur))
	for i := range cur {
		if cur[i] >= base[i] {
			out[i] = cur[i] - base[i]
		}
	}
	return out
}

// pauseQuantileNS estimates the q-quantile of a pause-count histogram in
// nanoseconds, using bucket midpoints and clamping the runtime's ±Inf
// edge buckets to their finite neighbor.
func pauseQuantileNS(counts []uint64, q float64) int64 {
	if len(gcBuckets) != len(counts)+1 {
		return 0
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum < rank {
			continue
		}
		lo, hi := gcBuckets[i], gcBuckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		return int64((lo + hi) / 2 * 1e9)
	}
	return 0
}
