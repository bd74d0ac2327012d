package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU returns the CPU time the calling OS thread has used.  The
// driver goroutine is locked to its thread, so the difference across one
// op is the op's own CPU time (including GC assists it paid), untouched
// by time the host spent running other tenants.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// processCPU returns the user+system CPU time of the whole process over
// all threads, which includes the GC's background workers on other cores.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample names the runtime/metrics counters one reading holds.
var runtimeSample = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/automatic:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

// counters is one reading of every cumulative counter the timed phase
// differences.  Readings bracket each pass, so untimed work between
// passes (session-drift's re-arm) is left out of every figure.
type counters struct {
	wall     time.Duration // monotonic time since the run started
	cpu      time.Duration // process CPU over all threads
	alloc    uint64        // bytes allocated
	gcCycles uint64        // automatic (not forced) GC cycles
	gcCPU    float64       // estimated GC CPU seconds
}

func readCounters(start time.Time) counters {
	metrics.Read(runtimeSample)
	return counters{
		wall:     time.Since(start),
		cpu:      processCPU(),
		alloc:    runtimeSample[0].Value.Uint64(),
		gcCycles: runtimeSample[1].Value.Uint64(),
		gcCPU:    runtimeSample[2].Value.Float64(),
	}
}

func (c counters) sub(o counters) counters {
	return counters{
		wall:     c.wall - o.wall,
		cpu:      c.cpu - o.cpu,
		alloc:    c.alloc - o.alloc,
		gcCycles: c.gcCycles - o.gcCycles,
		gcCPU:    c.gcCPU - o.gcCPU,
	}
}

func (c counters) add(o counters) counters {
	return counters{
		wall:     c.wall + o.wall,
		cpu:      c.cpu + o.cpu,
		alloc:    c.alloc + o.alloc,
		gcCycles: c.gcCycles + o.gcCycles,
		gcCPU:    c.gcCPU + o.gcCPU,
	}
}

// liveHeap forces collections until the heap holds only reachable
// objects and returns its size.  Two cycles also empty the sync.Pool
// victim caches, so pooled buffers do not count as program state.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, sorting xs in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	return xs[min(max(rank, 1), len(xs))-1]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first, second and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) (method "exclusive") and
// statistics.median compute them, so the steadiness report reads the
// same numbers an external checker derives from the same runs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	if ld%2 == 1 {
		med = d[ld/2]
	} else {
		med = (d[ld/2-1] + d[ld/2]) / 2
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q(1), med, q(3)
}
