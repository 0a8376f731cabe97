package obs

import (
	"math"
	"slices"
	"sync"
	"time"
)

// LatencyWindow is a fixed ring of the most recent latencies. It answers
// the rolling questions the serving tier asks: the hedge timer's
// per-peer quantile and the latency SLO's bad-request fraction and p99
// over its fast and slow windows. Safe for concurrent use.
type LatencyWindow struct {
	mu     sync.Mutex
	ring   []time.Duration
	idx, n int
}

// NewLatencyWindow holds the last size observations (128 when size <= 0).
func NewLatencyWindow(size int) *LatencyWindow {
	if size <= 0 {
		size = 128
	}
	return &LatencyWindow{ring: make([]time.Duration, size)}
}

// Observe records one latency; negative values count as zero.
func (w *LatencyWindow) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	w.mu.Lock()
	w.ring[w.idx] = d
	w.idx = (w.idx + 1) % len(w.ring)
	if w.n < len(w.ring) {
		w.n++
	}
	w.mu.Unlock()
}

// Count returns the number of observations currently held.
func (w *LatencyWindow) Count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// last copies the most recent min(k, n) observations, newest first (all
// held observations when k <= 0).
func (w *LatencyWindow) last(k int) []time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	if k <= 0 || k > w.n {
		k = w.n
	}
	out := make([]time.Duration, k)
	for i := range out {
		out[i] = w.ring[(w.idx-1-i+len(w.ring))%len(w.ring)]
	}
	return out
}

// Quantile returns the nearest-rank q-quantile — the sorted value at
// rank ceil(q·n)−1 — of the last k observations (all when k <= 0), or 0
// when the window is empty.
func (w *LatencyWindow) Quantile(q float64, k int) time.Duration {
	xs := w.last(k)
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(rank, len(xs)-1))]
}

// FractionOver returns the share of the last k observations (all when
// k <= 0) strictly above limit, or 0 when the window is empty.
func (w *LatencyWindow) FractionOver(limit time.Duration, k int) float64 {
	xs := w.last(k)
	if len(xs) == 0 {
		return 0
	}
	over := 0
	for _, d := range xs {
		if d > limit {
			over++
		}
	}
	return float64(over) / float64(len(xs))
}
