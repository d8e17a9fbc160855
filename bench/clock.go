package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// The benchmark measures wall time by definition; every read of the
// wall clock in this package goes through now or newTicker, so the
// repo's determinism linter has exactly these exemptions to review.
// Nothing read here reaches the program under test: it only ever sees
// the inputs generated from -seed.

func now() time.Time {
	//lint:ignore wallclock the benchmark times the program from outside; no simulated state reads this
	return time.Now()
}

func newTicker(d time.Duration) *time.Ticker {
	//lint:ignore wallclock the heap sampler polls in real time beside the timed region
	return time.NewTicker(d)
}

// elapsed is a started stopwatch.
type elapsed struct{ start time.Time }

func startTimer() elapsed            { return elapsed{start: now()} }
func (e *elapsed) restart()          { e.start = now() }
func (e elapsed) ns() int64          { return int64(now().Sub(e.start)) }
func (e elapsed) seconds() float64   { return float64(e.ns()) / 1e9 }
func nsToMicros(ns int64) float64    { return float64(ns) / 1e3 }
func nsToMillis(ns int64) float64    { return float64(ns) / 1e6 }
func bytesToKB(b uint64) float64     { return float64(b) / 1024 }
func bytesToMB(b uint64) float64     { return float64(b) / (1 << 20) }
func perSecond(n, ns int64) float64  { return float64(n) / (float64(ns) / 1e9) }
func meanMicros(ns, n int64) float64 { return float64(ns) / 1e3 / float64(n) }

// heapSampler tracks the maximum of /gc/heap/live:bytes — the bytes the
// last completed GC cycle marked live — polled every 20 ms. It forces
// no collections, so it does not perturb the timing it runs beside, and
// unlike HeapAlloc it does not count garbage awaiting the next cycle.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

const heapLiveMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := newTicker(20 * time.Millisecond)
		defer t.Stop()
		s := []metrics.Sample{{Name: heapLiveMetric}}
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// peakBytes stops the sampler and returns the maximum it saw.
func (h *heapSampler) peakBytes() uint64 {
	close(h.stop)
	h.done.Wait()
	return h.peak
}

// allocMeter measures bytes and objects allocated between start and
// delta, process-wide (client and server share the process).
type allocMeter struct{ bytes, objects uint64 }

func startAllocMeter() allocMeter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocMeter{bytes: m.TotalAlloc, objects: m.Mallocs}
}

func (a allocMeter) delta() allocMeter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocMeter{bytes: m.TotalAlloc - a.bytes, objects: m.Mallocs - a.objects}
}
