package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// median returns the median of vs (the mean of the middle two for an even
// count) without reordering vs. It is NaN for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// betterQuarter summarises the one-second windows of a run by the mean of
// the better quarter of them: the highest rates, the lowest latencies. On a
// shared host a neighbour only ever takes time away, for seconds at a
// stretch, so the better seconds are the program's and the worse ones partly
// the neighbour's: a run half spent beside a busy neighbour still reports
// the program, where the median of its windows reports whichever half was the
// longer. A quarter of the windows and not the best one, which one lucky
// second would set. README.md, "Noise", has the runs this was chosen on.
func betterQuarter(windows []float64, higherIsBetter bool) float64 {
	if len(windows) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), windows...)
	sort.Float64s(s)
	if higherIsBetter {
		slices.Reverse(s)
	}
	s = s[:(len(s)+3)/4]
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice: the smallest value with at least p percent of the samples
// at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// perSecondCounts counts the events in each whole second of [t0, t1).
func perSecondCounts(events []time.Duration, t0, t1 time.Duration) []float64 {
	buckets := make([]float64, int((t1-t0)/time.Second))
	for _, e := range events {
		if i := int((e - t0) / time.Second); e >= t0 && i < len(buckets) {
			buckets[i]++
		}
	}
	return buckets
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, and 0 when b is 0: a per-commit rate of a run without
// commits is reported as 0 and the run fails on its own account.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
