package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
)

// hostStamp says where a result was measured; it is written into every
// result file so that numbers from different machines are never
// compared by accident.
type hostStamp struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Kernel     string `json:"kernel"`
}

func stampHost() hostStamp {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return hostStamp{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Kernel:     strings.TrimSpace(string(kernel)),
	}
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status (0 where that file does not exist).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// procSample is a reading of the runtime's cumulative cost counters;
// the per-layer process.* metrics are differences of two of them.
type procSample struct {
	totalAlloc  uint64
	gcPauseNs   uint64
	gcCPUSec    float64
	totalCPUSec float64
	mutexSec    float64
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sync/mutex/wait/total:seconds"},
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return procSample{
		totalAlloc:  ms.TotalAlloc,
		gcPauseNs:   ms.PauseTotalNs,
		gcCPUSec:    f(0),
		totalCPUSec: f(1),
		mutexSec:    f(2),
	}
}

// processMetrics fills the process.* per-layer metrics for the window
// between two samples.
func processMetrics(before, after procSample, out map[string]float64) {
	out["process.peak_rss_mb"] = peakRSSMB()
	out["process.gc_pause_ms"] = float64(after.gcPauseNs-before.gcPauseNs) / 1e6
	if cpu := after.totalCPUSec - before.totalCPUSec; cpu > 0 {
		out["process.gc_cpu_share"] = (after.gcCPUSec - before.gcCPUSec) / cpu
	}
	out["process.mutex_wait_ms"] = (after.mutexSec - before.mutexSec) * 1e3
}
