package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// oracle is the textbook nearest-rank quantile over a sorted copy.
func oracle(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	for i, v := range s {
		if float64(i+1) >= q*float64(len(s)) {
			return v
		}
	}
	return s[len(s)-1]
}

func TestQuantileMatchesSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 300; n += 7 {
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = rng.ExpFloat64() * 5
		}
		for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			if got, want := quantile(samples, q), oracle(samples, q); got != want {
				t.Fatalf("n=%d q=%v: quantile %v, oracle %v", n, q, got, want)
			}
		}
	}
}

func TestQuantileExactNotBucketed(t *testing.T) {
	// 1..100 ms: the exact p50 is 50 and p99 is 99, not a histogram edge.
	samples := make([]float64, 100)
	for i := range samples {
		samples[100-1-i] = float64(i + 1)
	}
	if got := quantile(samples, 0.5); got != 50 {
		t.Fatalf("p50 = %v, want 50", got)
	}
	if got := quantile(samples, 0.99); got != 99 {
		t.Fatalf("p99 = %v, want 99", got)
	}
	if samples[0] != 100 {
		t.Fatal("quantile reordered its input")
	}
}

func TestFailedRequestCountsAsInfinitelySlow(t *testing.T) {
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = 1
	}
	// One failure in 200 stays beyond p99 ...
	samples[7] = math.Inf(1)
	if got := quantile(samples, 0.99); got != 1 {
		t.Fatalf("p99 with 1/200 failed = %v, want 1", got)
	}
	if got := quantile(samples, 1); !math.IsInf(got, 1) {
		t.Fatalf("max with a failure = %v, want +Inf", got)
	}
	// ... three failures in 200 (1.5%) make p99 infinite, as the oracle says.
	samples[8], samples[9] = math.Inf(1), math.Inf(1)
	if got, want := quantile(samples, 0.99), oracle(samples, 0.99); !math.IsInf(got, 1) || !math.IsInf(want, 1) {
		t.Fatalf("p99 with 3/200 failed = %v (oracle %v), want +Inf", got, want)
	}
	if got := quantile(samples, 0.5); got != 1 {
		t.Fatalf("p50 = %v, want 1", got)
	}
}

func TestMedianAndEmpty(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median even = %v", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) || !math.IsNaN(median(nil)) {
		t.Fatal("empty input should give NaN")
	}
}

func TestWindowedRate(t *testing.T) {
	// Out-of-order completions: 10 units per 0.1 s except one slow
	// window; the median window rate is 100/s.
	at := []float64{0.3, 0, 0.1, 0.2, 1.2, 0.4}
	amount := []float64{10, 10, 10, 10, 10, 10}
	if r := windowedRate(at, amount, 1); math.Abs(r-100) > 1e-9 {
		t.Fatalf("windowedRate = %v, want 100", r)
	}
}
