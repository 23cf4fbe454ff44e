package main

import (
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"
)

// procUsage is the process-under-test's resource use at one instant;
// deltas of two bracket a measured stretch.
type procUsage struct {
	CPUNs    int64   // user+system CPU
	Mallocs  uint64  // heap objects allocated
	GCCPU    float64 // GC CPU seconds (runtime/metrics)
	TotalCPU float64 // all CPU seconds the runtime accounts (runtime/metrics)
}

func readUsage() procUsage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return procUsage{CPUNs: int64(selfCPU()), Mallocs: ms.Mallocs, GCCPU: s[0].Value.Float64(), TotalCPU: s[1].Value.Float64()}
}

// runtimeLayers fills the runtime.* per-layer metrics from two usage
// readings around n requests and a heap peak in bytes.
func runtimeLayers(L map[string]float64, a, b procUsage, n float64, heapPeak uint64) {
	L["runtime.allocs_per_req"] = float64(b.Mallocs-a.Mallocs) / n
	// The runtime refreshes its CPU classes at GC; a stretch with no GC
	// reads no CPU at all.
	if total := b.TotalCPU - a.TotalCPU; total > 0 {
		L["runtime.gc_cpu_share"] = (b.GCCPU - a.GCCPU) / total
	}
	L["runtime.heap_peak_MB"] = float64(heapPeak) / (1 << 20)
}

// heapSampler tracks the peak of live heap bytes, sampled every 10 ms.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go h.loop()
	return h
}

func (h *heapSampler) loop() {
	defer close(h.done)
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		metrics.Read(s)
		v := s[0].Value.Uint64()
		for {
			p := h.peak.Load()
			if v <= p || h.peak.CompareAndSwap(p, v) {
				break
			}
		}
		select {
		case <-h.stop:
			return
		case <-t.C:
		}
	}
}

// close stops the sampler and waits for it to exit.
func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}
