package main

import (
	"math"
	"sort"
)

// quantile returns the exact q-quantile (0 ≤ q ≤ 1) of the recorded
// samples by the nearest-rank rule: the smallest value with at least
// q·n samples at or below it. Failed or refused requests are recorded as
// +Inf, so they count as infinitely slow and can push a quantile to +Inf.
// The input is not modified. An empty input gives NaN.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the middle of the samples (mean of the two middle values for
// an even count), used for set-up repetitions where the count is small.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean, 0 for no samples.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// ratio is num/den, 0 when den is 0: a per-layer rate of a layer the
// workload never exercised reads 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// windowedRate orders completions by time, splits them into consecutive
// windows of k and returns the median window rate: the amount completed
// in the window over the time it took. amount[i] completed at at[i].
func windowedRate(at, amount []float64, k int) float64 {
	idx := make([]int, len(at))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return at[idx[a]] < at[idx[b]] })
	var per []float64
	for start := 0; start+k < len(idx); start += k {
		var done float64
		for _, i := range idx[start+1 : start+k+1] {
			done += amount[i]
		}
		per = append(per, ratio(done, at[idx[start+k]]-at[idx[start]]))
	}
	return median(per)
}
