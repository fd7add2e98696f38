package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs:
// the smallest sample with at least p % of the samples at or below it.
// It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p*float64(len(s))/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailOf returns job_tail_ms of a workload's latencies: the percentile
// tailPercent names, which for the small-sample workloads is the median
// itself.
func tailOf(workload string, xs []float64) float64 {
	if p := tailPercent[workload]; p > 50 {
		return percentile(xs, p)
	}
	return median(xs)
}

// fastDecile returns the value a tenth of the way in from the fast end of
// xs (nearest rank: the fastest of up to 10 values, the second fastest of
// 11 to 20, …); better says which end is fast. The time-boxed workloads
// take every end-to-end number per slice of the run and report this over
// the slices, for the reason the library workload reports its fastest
// cycle: a slice repeats the same work, and what differs between slices on
// a shared host is the host, whose slow phases only ever add time.
func fastDecile(xs []float64, better string) float64 {
	if better == higher {
		neg := make([]float64, len(xs))
		for i, x := range xs {
			neg[i] = -x
		}
		return -percentile(neg, 10)
	}
	return percentile(xs, 10)
}

// median returns the middle sample, averaging the two middle ones of an
// even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so
// the spreads printed here are the ones the driver checks. Fewer than two
// samples have no spread: both quartiles equal the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	if len(xs) == 1 {
		return xs[0], xs[0]
	}
	s := sorted(xs)
	const n = 4
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise measure the bounds are judged against.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / med)
}

// tailPercentile names the highest of the usual percentiles that still has
// at least ten samples beyond it in a sample of n; 50 when none has.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, permille := range []int{900, 950, 990, 999} {
		rank := (n*permille + 999) / 1000 // nearest rank, in integers
		if n-rank >= 10 {
			best = float64(permille) / 10
		}
	}
	return best
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(seconds float64) float64 { return seconds * 1e3 }
