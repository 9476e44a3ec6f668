package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// procSample is a point-in-time reading of the process counters the
// end-to-end metrics are differences of.
type procSample struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{wall: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// slice is one stretch of measured time: a pass, a round or a second.
type slice struct {
	ops  int64
	wall time.Duration
	cpu  time.Duration
}

// costs accumulates per-op process costs over the measured windows of a
// run (set-up and output checks between windows are excluded).
// Throughput and CPU per op are medians over slices, so a burst of host
// noise in one slice does not move them; allocation counts are totals.
type costs struct {
	ops     int64
	mallocs uint64
	bytes   uint64
	slices  []slice
}

// add folds one measured window [a, b] that completed ops operations as
// one slice; setup is set-up time inside the window, excluded from its
// wall time.
func (c *costs) add(a, b procSample, ops int64, setup time.Duration) {
	c.addTotals(a, b, ops)
	c.slices = append(c.slices, slice{ops: ops, wall: b.wall.Sub(a.wall) - setup, cpu: b.cpu - a.cpu})
}

// addTotals folds a window's operation and allocation totals only; its
// slices are added by the caller.
func (c *costs) addTotals(a, b procSample, ops int64) {
	c.ops += ops
	c.mallocs += b.mallocs - a.mallocs
	c.bytes += b.bytes - a.bytes
}

// rate is the median slice throughput.
func (c *costs) rate() float64 {
	xs := make([]float64, 0, len(c.slices))
	for _, s := range c.slices {
		xs = append(xs, float64(s.ops)/s.wall.Seconds())
	}
	return quantile(xs, 0.5)
}

// report sets the throughput, CPU and allocation metrics every workload
// shares.
func (c *costs) report(r *result) {
	n := float64(max(c.ops, 1))
	cpu := make([]float64, 0, len(c.slices))
	for _, s := range c.slices {
		if s.ops > 0 {
			cpu = append(cpu, float64(s.cpu.Nanoseconds())/1e3/float64(s.ops))
		}
	}
	r.set("ops_per_s", c.rate(), "op/s")
	r.set("cpu_us_per_op", quantile(cpu, 0.5), "us")
	r.set("allocs_per_op", float64(c.mallocs)/n, "count")
	r.set("alloc_kb_per_op", float64(c.bytes)/1024/n, "KiB")
}

// heapLiveMB is the live heap after full collections: what the
// workload's caches and rings retain. keep must hold everything the
// workload still owns, so it is not collected first. The second
// collection empties sync.Pool victim caches, whose contents otherwise
// depend on when the last collection ran.
func heapLiveMB(keep ...any) float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// durQuantileUS is quantile over durations, in microseconds.
func durQuantileUS(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d.Nanoseconds()) / 1e3
	}
	return quantile(xs, q)
}

// reportLatency sets lat_p50_us and prints p90 as a reference figure:
// on deck_motion and campaign p90 falls in a sparse tail (heavy IK
// solves, heavy scenarios) and moved by a fifth between runs, more than
// any bound could allow, so it is no end-to-end metric.
func reportLatency(r *result, lat []time.Duration) {
	r.set("lat_p50_us", durQuantileUS(lat, 0.50), "us")
	fmt.Printf("# reference lat_p90_us %.1f us over %d ops\n", durQuantileUS(lat, 0.90), len(lat))
}

// median of a small sample of durations, in seconds.
func medianSeconds(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return quantile(xs, 0.5)
}

// inputDir finds the committed inputs whether the benchmark runs from the
// repository root or from its own directory.
func inputDir() string {
	p := filepath.Join("rabitbench", "inputs")
	if st, err := os.Stat(p); err == nil && st.IsDir() {
		return p
	}
	return "inputs"
}
