package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples a reported tail must have beyond it.
const minBeyond = 10

// tailRank returns the 1-based rank of the tail in n sorted samples:
// the highest rank with at least minBeyond samples beyond it, or 0 when
// n is too small for one.
func tailRank(n int) int {
	if n <= minBeyond {
		return 0
	}
	return n - minBeyond
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// tail summarises latency samples at the highest percentile that keeps
// minBeyond samples beyond it.
type tail struct {
	Value      float64
	Percentile float64
	Samples    int
}

// sampleTail is the tail of one flat sample set: its value is the
// sample at tailRank, and Percentile the share of samples at or below it.
func sampleTail(xs []float64) tail {
	r := tailRank(len(xs))
	if r == 0 {
		return tail{Value: math.NaN(), Samples: len(xs)}
	}
	return tail{Value: sorted(xs)[r-1], Percentile: 100 * float64(r) / float64(len(xs)), Samples: len(xs)}
}

// tailWindows is the number of equal spans of the timed phase over which
// mincutd-mixed takes its tails.
const tailWindows = 3

// windowTail splits samples into n equal spans of [0, span) by the time
// each began (at, in the unit of span), takes every span's tail, and
// returns the median of their values with the tails themselves. A host
// hiccup that slows a dozen requests moves the tail of the span it falls
// in, not the median of three. The value is NaN when a span has too few
// samples for a tail.
func windowTail(xs, at []float64, span float64, n int) (float64, []tail) {
	groups := make([][]float64, n)
	for i, x := range xs {
		w := min(n-1, max(0, int(at[i]/span*float64(n))))
		groups[w] = append(groups[w], x)
	}
	tails := make([]tail, n)
	vals := make([]float64, n)
	for w, g := range groups {
		tails[w] = sampleTail(g)
		if math.IsNaN(tails[w].Value) {
			return math.NaN(), tails
		}
		vals[w] = tails[w].Value
	}
	return median(vals), tails
}

// pooledTail aggregates per-configuration samples the way the median is
// aggregated: every sample is normalised by its configuration's median,
// the tail percentile is taken over the pooled ratios, and it scales the
// geometric mean of the configuration medians. Configurations of very
// different cost thus weigh equally, as they do in the geomean.
func pooledTail(groups [][]float64) tail {
	var ratios []float64
	meds := make([]float64, 0, len(groups))
	for _, g := range groups {
		m := median(g)
		meds = append(meds, m)
		for _, x := range g {
			ratios = append(ratios, x/m)
		}
	}
	t := sampleTail(ratios)
	t.Value *= geomean(meds)
	return t
}

// geomeanOfMedians is the batch workloads' op_p50 aggregation.
func geomeanOfMedians(groups [][]float64) float64 {
	meds := make([]float64, 0, len(groups))
	for _, g := range groups {
		meds = append(meds, median(g))
	}
	return geomean(meds)
}
