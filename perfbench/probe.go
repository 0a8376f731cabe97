package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// runtimeProbe measures the Go runtime over one measured phase: objects
// allocated, stop-the-world GC pause time, and the peak live heap (the
// heap the last GC found reachable), sampled every few milliseconds. The
// live heap is what the workload needs; the garbage on top of it depends
// on GC timing.
type runtimeProbe struct {
	allocs0 uint64
	pause0  uint64
	stop    chan struct{}
	wg      sync.WaitGroup
	peak    uint64 // written by the sampler goroutine, read after wg.Wait
}

const (
	allocsMetric = "/gc/heap/allocs:objects"
	heapMetric   = "/gc/heap/live:bytes"
)

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func pauseTotalNs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.PauseTotalNs
}

// startProbe collects garbage left by set-up, then starts sampling.
func startProbe() *runtimeProbe {
	runtime.GC()
	p := &runtimeProbe{stop: make(chan struct{}), pause0: pauseTotalNs()}
	p.allocs0 = readMetric(allocsMetric)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: heapMetric}}
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > p.peak {
				p.peak = v
			}
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// probeResult is what a probe measured.
type probeResult struct {
	allocs  float64 // heap objects allocated
	pauseMS float64 // GC stop-the-world time
	peakMB  float64 // peak live heap, in MB
}

// finish stops the sampler and returns the phase's figures.
func (p *runtimeProbe) finish() probeResult {
	allocs := readMetric(allocsMetric) - p.allocs0
	pause := pauseTotalNs() - p.pause0
	close(p.stop)
	p.wg.Wait()
	return probeResult{
		allocs:  float64(allocs),
		pauseMS: float64(pause) / 1e6,
		peakMB:  float64(p.peak) / (1 << 20),
	}
}
