package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"

	"repro/internal/tensor"
)

// host identifies the machine a result came from: runs from different
// hosts cannot be compared, so every result carries one.
type host struct {
	CPU           string `json:"cpu"`
	AVX2          bool   `json:"avx2"`
	FMA           bool   `json:"fma"`
	AVX512F       bool   `json:"avx512f"`
	Int8Kernel    bool   `json:"int8_kernel"`
	NProc         int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	GOGC          string `json:"gogc"`
	GoVersion     string `json:"go_version"`
	OS            string `json:"os"`
	Arch          string `json:"arch"`
	KernelRelease string `json:"kernel,omitempty"`
}

func hostRecord() host {
	h := host{
		CPU:        "unknown",
		Int8Kernel: tensor.HasInt8Kernel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       os.Getenv("GOGC"),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
	if h.GOGC == "" {
		h.GOGC = "100 (default)"
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			key, val, ok := strings.Cut(sc.Text(), ":")
			if !ok {
				continue
			}
			key, val = strings.TrimSpace(key), strings.TrimSpace(val)
			switch key {
			case "model name":
				h.CPU = val
			case "flags":
				for _, fl := range strings.Fields(val) {
					switch fl {
					case "avx2":
						h.AVX2 = true
					case "fma":
						h.FMA = true
					case "avx512f":
						h.AVX512F = true
					}
				}
			}
			if key == "flags" { // the first processor describes them all
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.KernelRelease = strings.TrimSpace(string(b))
	}
	return h
}

// peakRSSMiB is the process's peak resident set (VmHWM), or NaN where
// /proc does not report it.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}

// runtimeStats is a runtime/metrics reading.
type runtimeStats struct {
	gcCycles   float64
	gcPauseS   float64
	allocBytes float64
}

var runtimeSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeStats{
		gcCycles:   float64(s[0].Value.Uint64()),
		gcPauseS:   histSum(s[1].Value.Float64Histogram()),
		allocBytes: float64(s[2].Value.Uint64()),
	}
}

// histSum approximates a histogram's total by its bucket midpoints (the
// finite edge for the open-ended buckets).
func histSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, n := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		switch {
		case math.IsInf(lo, 0):
			mid = hi
		case math.IsInf(hi, 0):
			mid = lo
		}
		sum += float64(n) * mid
	}
	return sum
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{a.gcCycles - b.gcCycles, a.gcPauseS - b.gcPauseS, a.allocBytes - b.allocBytes}
}

func (a runtimeStats) into(m map[string]float64) {
	m["go.gc_cycles"] = a.gcCycles
	m["go.gc_pause_ms"] = a.gcPauseS * 1e3
	m["go.alloc_mib"] = a.allocBytes / (1 << 20)
}
