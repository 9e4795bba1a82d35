package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of sorted values by
// the nearest-rank rule: the smallest value with at least p percent of
// the sample at or below it. Nearest rank never invents a latency
// that no request had.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sample is one timed request: when it was due (open loop) or sent
// (closed loop), relative to the window start, and how long the
// caller waited for the reply.
type sample struct {
	at  time.Duration
	lat time.Duration
}

// latencyPercentiles returns p50, p95 and p99 of the samples in
// milliseconds, and the p50 of each fifth of the window in time order:
// a drift over the window (a cache filling, an index converging) shows
// there and not in one figure.
func latencyPercentiles(samples []sample, window time.Duration) (ps [3]float64, fifths []float64) {
	const parts = 5
	all := make([]float64, 0, len(samples))
	byPart := make([][]float64, parts)
	for _, s := range samples {
		ms := float64(s.lat) / float64(time.Millisecond)
		all = append(all, ms)
		i := int(int64(s.at) * parts / int64(window))
		if i < 0 {
			i = 0
		}
		if i >= parts {
			i = parts - 1
		}
		byPart[i] = append(byPart[i], ms)
	}
	sort.Float64s(all)
	ps = [3]float64{percentile(all, 50), percentile(all, 95), percentile(all, 99)}
	for _, part := range byPart {
		sort.Float64s(part)
		fifths = append(fifths, percentile(part, 50))
	}
	return ps, fifths
}

// p50us is the median of durations in microseconds; the ladder's rungs
// are compared by it.
func p50us(ds []time.Duration) float64 {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = float64(d) / float64(time.Microsecond)
	}
	return median(vals)
}

// meanUs is the mean of durations in microseconds.
func meanUs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / float64(time.Microsecond)
}
