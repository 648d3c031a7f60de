package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// summary describes the samples behind one metric: how many there were,
// their median and their quartiles. A later change compares two commits by
// these, so a metric whose quartiles overlap can be reported as unresolved
// rather than unchanged.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

// quantile returns the q-quantile of sorted samples by the "exclusive"
// method of Python's statistics.quantiles (position q*(n+1), linearly
// interpolated, clamped to the extremes), so the quartiles printed here are
// the ones a reader computes from the same samples.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n+1)
	if pos <= 1 {
		return sorted[0]
	}
	if pos >= float64(n) {
		return sorted[n-1]
	}
	i := int(pos)
	frac := pos - float64(i)
	return sorted[i-1] + frac*(sorted[i]-sorted[i-1])
}

func median(xs []float64) float64 { return summarize(xs).Median }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// readMetric reads one cumulative or gauge value from runtime/metrics,
// which unlike runtime.ReadMemStats does not stop the world.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocatedBytes returns the bytes allocated on the heap so far.
func allocatedBytes() uint64 { return readMetric("/gc/heap/allocs:bytes") }

// liveHeap returns the heap bytes the most recent garbage collection found
// live.
func liveHeap() uint64 { return readMetric("/gc/heap/live:bytes") }

// heapPeak tracks the largest live heap any garbage collection measured.
// A finalizer that re-arms itself runs after every collection, so unlike
// polling on a timer it misses no cycle, however short.
type heapPeak struct {
	max     atomic.Uint64
	stopped atomic.Bool
}

// gcSentinel is large enough to stay out of the tiny allocator, whose
// shared blocks may never be finalized.
type gcSentinel struct{ _ [32]byte }

func startHeapPeak() *heapPeak {
	h := &heapPeak{}
	h.arm()
	return h
}

func (h *heapPeak) arm() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		h.observe(liveHeap())
		if !h.stopped.Load() {
			h.arm()
		}
	})
}

func (h *heapPeak) observe(v uint64) {
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// take returns the peak since the last take, counting the live heap of the
// latest collection, and starts a new interval.
func (h *heapPeak) take() uint64 {
	h.observe(liveHeap())
	return h.max.Swap(0)
}

// stop lets the pending finalizer lapse at the next collection.
func (h *heapPeak) stop() { h.stopped.Store(true) }

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
