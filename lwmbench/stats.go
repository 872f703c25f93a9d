package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler samples the Go runtime's resident memory — everything it
// has mapped minus the heap it has returned to the OS — while it runs,
// and keeps the peak of each window. The process-lifetime ru_maxrss
// would instead report whichever set-up phase peaked, and both it and a
// single window's peak swing with where garbage collections fell, so
// the metric is the median of the window peaks: the peak a typical
// second of the load reaches.
type rssSampler struct {
	stop chan struct{}
	done chan []float64
}

func sampleRSS(every, window time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	samples := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	read := func() float64 {
		metrics.Read(samples)
		return float64(samples[0].Value.Uint64() - samples[1].Value.Uint64())
	}
	go func() {
		var peaks []float64
		peak, since := read(), time.Now()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peak = math.Max(peak, read())
				if time.Since(since) >= window {
					peaks = append(peaks, peak)
					peak, since = 0, time.Now()
				}
			case <-s.stop:
				s.done <- append(peaks, math.Max(peak, read()))
				return
			}
		}
	}()
	return s
}

// peakMB stops the sampler and returns the median window peak in MB.
func (s *rssSampler) peakMB() float64 {
	close(s.stop)
	return median(<-s.done) / 1e6
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailQuantile is the highest percentile, capped at 0.90, that leaves at
// least ten samples beyond it.
func tailQuantile(n int) float64 {
	if n <= 10 {
		return 0.5
	}
	return math.Min(0.90, math.Floor(100*(1-10/float64(n)))/100)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio guards a rate against an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
