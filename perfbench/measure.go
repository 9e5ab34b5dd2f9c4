package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setUpRuns is how many times a run repeats its set-up; setup_s is the
// median, so one slow set-up does not move it.
const setUpRuns = 3

// setUp runs build setUpRuns times, releases all but the last result, and
// returns that result with the median set-up time in seconds.
func setUp[T any](build func() (T, error), release func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for k := 0; k < setUpRuns; k++ {
		if k > 0 && release != nil {
			release(last)
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
		// Collect the set-up's garbage now, so neither the next set-up nor
		// the measured window inherits a heap of a size that depends on
		// where the collector happened to be.
		runtime.GC()
	}
	return last, quantile(times, 0.5), nil
}

// timeSlices is how many equal slices a measured window is cut into. The
// end-to-end latency and throughput figures are medians over the slices,
// so a burst of interference from outside the process spoils one slice
// instead of the whole run.
const timeSlices = 10

// sample is one verified operation: when it ended, counted from the start
// of its window, and its latency.
type sample struct {
	at time.Duration
	ms float64
}

func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.ms
	}
	return out
}

// sliceStats are medians over the slices of a window.
type sliceStats struct {
	p50, p90 float64 // latency percentiles, ms
	perBusy  float64 // operations per second spent in them (1 / mean latency)
}

// sliceMedians cuts a window of length dur into timeSlices equal slices
// by when each sample ended and returns, for each statistic, its median
// over the slices.
func sliceMedians(samples []sample, dur time.Duration) sliceStats {
	width := dur / timeSlices
	buckets := make([][]float64, timeSlices)
	for _, s := range samples {
		k := int(s.at / width)
		if k >= timeSlices {
			k = timeSlices - 1 // the operation in flight when the window closed
		}
		buckets[k] = append(buckets[k], s.ms)
	}
	var p50s, p90s, perBusy []float64
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		busy := 0.0
		for _, v := range b {
			busy += v / 1000
		}
		perBusy = append(perBusy, float64(len(b))/busy)
		p50s = append(p50s, quantile(b, 0.5))
		p90s = append(p90s, quantile(b, 0.9))
	}
	return sliceStats{
		p50:     quantile(p50s, 0.5),
		p90:     quantile(p90s, 0.5),
		perBusy: quantile(perBusy, 0.5),
	}
}

// quantile returns the q-quantile (0 < q <= 1) of xs by the nearest-rank
// rule; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(math.Ceil(float64(len(xs))*q)) - 1
	if k < 0 {
		k = 0
	}
	return xs[k]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mix derives the k-th input seed of a run from the run's seed
// (SplitMix64), so every input of a run comes from --seed alone.
func mix(seed, k uint64) uint64 {
	z := seed + (k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goStats is a snapshot of the Go runtime's allocation and CPU counters.
type goStats struct {
	mallocs, bytes uint64
	gcCPU, allCPU  float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readGoStats() goStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	metrics.Read(cpuSamples)
	s := goStats{mallocs: m.Mallocs, bytes: m.TotalAlloc}
	if cpuSamples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = cpuSamples[0].Value.Float64()
		s.allCPU = cpuSamples[1].Value.Float64()
	}
	return s
}

// goMetrics fills the go.* per-layer metrics for ops operations between
// two snapshots.
func goMetrics(m map[string]float64, before, after goStats, ops int) {
	m["go.allocs_per_op"] = ratio(float64(after.mallocs-before.mallocs), float64(ops))
	m["go.alloc_kb_per_op"] = ratio(float64(after.bytes-before.bytes)/1024, float64(ops))
	m["go.gc_cpu_fraction"] = ratio(after.gcCPU-before.gcCPU, after.allCPU-before.allCPU)
}

// tcpOpens reads the kernel's count of TCP connections opened in this
// network namespace (active opens are connects, passive opens accepts), so
// a run can report how many sockets it churned through.
func tcpOpens() (int64, error) {
	f, err := os.Open("/proc/net/snmp")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseTCPOpens(f)
}

func parseTCPOpens(r io.Reader) (int64, error) {
	sc := bufio.NewScanner(r)
	var header []string
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "Tcp:" {
			continue
		}
		if header == nil {
			header = fields
			continue
		}
		var total int64
		for i, name := range header {
			if (name == "ActiveOpens" || name == "PassiveOpens") && i < len(fields) {
				v, err := strconv.ParseInt(fields[i], 10, 64)
				if err != nil {
					return 0, err
				}
				total += v
			}
		}
		return total, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no Tcp counters in /proc/net/snmp")
}

// timeWait reads how many TCP sockets sit in TIME_WAIT in this network
// namespace (the "tw" field of /proc/net/sockstat), or -1 when unknown.
func timeWait() int64 {
	b, err := os.ReadFile("/proc/net/sockstat")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || fields[0] != "TCP:" {
			continue
		}
		for i := 1; i+1 < len(fields); i += 2 {
			if fields[i] == "tw" {
				if v, err := strconv.ParseInt(fields[i+1], 10, 64); err == nil {
					return v
				}
			}
		}
	}
	return -1
}
