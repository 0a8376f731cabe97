package obs

import (
	"testing"
	"time"
)

func TestLatencyWindowQuantile(t *testing.T) {
	w := NewLatencyWindow(64)
	if q := w.Quantile(0.95, 0); q != 0 {
		t.Fatalf("quantile of an empty window = %v, want 0", q)
	}
	for i := 1; i <= 100; i++ {
		w.Observe(time.Duration(i) * time.Millisecond)
	}
	// Window holds the last 64 samples: 37..100ms.
	p50 := w.Quantile(0.5, 0)
	if p50 < 60*time.Millisecond || p50 > 80*time.Millisecond {
		t.Fatalf("p50 = %v, want ≈69ms", p50)
	}
	p95 := w.Quantile(0.95, 0)
	if p95 < 90*time.Millisecond || p95 > 100*time.Millisecond {
		t.Fatalf("p95 = %v, want ≈97ms", p95)
	}
	if hi := w.Quantile(1, 0); hi != 100*time.Millisecond {
		t.Fatalf("q1 = %v, want 100ms", hi)
	}

	// Nearest rank where q·n is an integer: over 20 samples of 1..20ms,
	// p95 is the sorted value at rank ceil(0.95·20)−1 = 18, i.e. 19ms —
	// not the maximum.
	w20 := NewLatencyWindow(20)
	for i := 1; i <= 20; i++ {
		w20.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := w20.Quantile(0.95, 0); got != 19*time.Millisecond {
		t.Fatalf("p95 of 1..20ms = %v, want 19ms (nearest rank)", got)
	}
}
