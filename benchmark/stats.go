package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of v (mean of the two middle values for
// an even count) without modifying v; 0 for an empty slice.
func median(v []float64) float64 {
	return percentile(v, 0.5)
}

// percentile returns the p-quantile (0..1) of v by linear interpolation
// between order statistics, without modifying v; 0 for an empty slice.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// processCPU returns the user+system CPU time the process has consumed.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's resident-set high-water mark in MB
// (ru_maxrss is kilobytes on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memCounters is the runtime.MemStats subset the process.* metrics use.
type memCounters struct {
	mallocs    uint64
	allocBytes uint64
	gcPause    time.Duration
	heapSysMB  float64
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{
		mallocs:    m.Mallocs,
		allocBytes: m.TotalAlloc,
		gcPause:    time.Duration(m.PauseTotalNs),
		heapSysMB:  float64(m.HeapSys) / (1 << 20),
	}
}

// triadGBPerS times one a[i] = b[i] + s*c[i] sweep over three 16 MB
// arrays (48 MB, far past L2) and returns the bytes moved per second. It
// is context for reading a slow run, never a divisor.
func triadGBPerS() float64 {
	const n = 2 << 20
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		a[i], b[i], c[i] = 1, float64(i), float64(n-i) // touch every page before timing
	}
	start := time.Now()
	for i := range a {
		a[i] = b[i] + 3*c[i]
	}
	el := time.Since(start).Seconds()
	if el <= 0 || a[n/2] < 0 {
		return 0
	}
	return 3 * 8 * n / el / 1e9
}
