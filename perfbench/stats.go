package main

import (
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the two closest ranks (rank q·(n−1), the
// "type 7" estimator). xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(s []float64, q float64) float64 {
	r := q * float64(len(s)-1)
	lo := int(math.Floor(r))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (r-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// summary is a timing's median with its quartiles and sample count.
type summary struct {
	Q1, Median, Q3 float64
	N              int
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return summary{Q1: math.NaN(), Median: math.NaN(), Q3: math.NaN()}
	}
	return summary{Q1: sortedQuantile(s, 0.25), Median: sortedQuantile(s, 0.5), Q3: sortedQuantile(s, 0.75), N: len(s)}
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// cpuTime is the process's CPU time so far, all threads, user plus
// system, read from CLOCK_PROCESS_CPUTIME_ID (getrusage is only as fine
// as the scheduler tick). Unlike wall time it leaves out time the host
// steals from a shared VM's CPUs.
func cpuTime() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("perfbench: clock_gettime: " + errno.Error()) // cannot fail for a valid clock id
	}
	return time.Duration(ts.Nano())
}

// stopwatch adds up wall and CPU time over the intervals it runs.
type stopwatch struct {
	wall, cpu time.Duration
	w0        time.Time
	c0        time.Duration
}

func (s *stopwatch) start() { s.c0, s.w0 = cpuTime(), time.Now() }

// stop ends an interval and returns its wall time.
func (s *stopwatch) stop() time.Duration {
	d := time.Since(s.w0)
	s.cpu += cpuTime() - s.c0
	s.wall += d
	return d
}

// latencyHist records per-operation latencies at 1 ns resolution
// without keeping every sample: a shim run applies millions of updates,
// so a slice of samples would dominate the benchmark's own memory.
// Latencies beyond the dense range (GC pauses, mostly) are kept
// individually.
type latencyHist struct {
	counts   []uint32
	overflow []int64
	n, sum   int64
}

const histRange = 1 << 18 // ns covered by the dense buckets

func newLatencyHist() *latencyHist { return &latencyHist{counts: make([]uint32, histRange)} }

func (h *latencyHist) add(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	if ns < histRange {
		h.counts[ns]++
	} else {
		h.overflow = append(h.overflow, ns)
	}
	h.n++
	h.sum += ns
}

// quantile reads the q-quantile off the histogram, taking each 1 ns
// bucket's samples as spread evenly across the bucket, and returns
// nanoseconds.
func (h *latencyHist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	target := q * float64(h.n)
	var cum float64
	for ns, c := range h.counts {
		if c > 0 && cum+float64(c) >= target {
			return float64(ns) + (target-cum)/float64(c)
		}
		cum += float64(c)
	}
	sort.Slice(h.overflow, func(i, j int) bool { return h.overflow[i] < h.overflow[j] })
	i := min(max(int(math.Ceil(target-cum))-1, 0), len(h.overflow)-1)
	return float64(h.overflow[i])
}
