package main

import (
	"runtime"
	"time"
)

// heapSampler polls runtime.ReadMemStats on a background goroutine and
// tracks the peak HeapAlloc observed — the measurement behind
// `sweep -mem-stats`. Peak live heap is the number the streaming sweep
// is accountable to: TotalAlloc-style churn counters cannot distinguish
// "allocated and released per cell" from "held the whole grid", but
// peak HeapAlloc can.
type heapSampler struct {
	base, peak uint64 // peak is the goroutine's until done is closed

	quit chan struct{}
	done chan struct{}
}

// startHeapSampler begins sampling every 5 ms. The baseline for the
// delta that stop reports is HeapAlloc at this call.
func startHeapSampler() *heapSampler {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h := &heapSampler{
		base: ms.HeapAlloc,
		peak: ms.HeapAlloc,
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.quit:
				h.sample()
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > h.peak {
		h.peak = ms.HeapAlloc
	}
}

// stop takes a final sample, ends the sampler, and returns the
// peak HeapAlloc observed plus its delta over the baseline at start.
// Sampling is periodic, so a spike shorter than the interval can be
// missed — the peak is a floor, not an exact high-water mark.
func (h *heapSampler) stop() (peak, delta uint64) {
	close(h.quit)
	<-h.done
	return h.peak, h.peak - h.base
}
