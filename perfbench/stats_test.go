package main

import (
	"math"
	"testing"
)

func TestTailRankKeepsTenBeyond(t *testing.T) {
	for _, n := range []int{0, 1, 10} {
		if r := tailRank(n); r != 0 {
			t.Errorf("tailRank(%d) = %d, want 0 (too few samples)", n, r)
		}
	}
	for _, n := range []int{11, 20, 100, 5000} {
		r := tailRank(n)
		if beyond := n - r; beyond != minBeyond {
			t.Errorf("tailRank(%d) = %d leaves %d samples beyond, want %d", n, r, beyond, minBeyond)
		}
	}
}

func TestSampleTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	got := sampleTail(xs)
	if got.Value != 90 || got.Percentile != 90 || got.Samples != 100 {
		t.Errorf("sampleTail(1..100) = %+v, want value 90 at p90 of 100", got)
	}
	if got := sampleTail(xs[:10]); !math.IsNaN(got.Value) {
		t.Errorf("sampleTail of 10 samples = %v, want NaN", got.Value)
	}
}

func TestWindowTailIgnoresOneSlowWindow(t *testing.T) {
	// Three windows of 1..20 ms each; the last is slowed tenfold, as by a
	// host hiccup. Each window's tail is its 10th value; the median
	// ignores the slow window.
	var xs, at []float64
	for w := range 3 {
		for i := 1; i <= 20; i++ {
			x := float64(i)
			if w == 2 {
				x *= 10
			}
			xs = append(xs, x)
			at = append(at, float64(w)+float64(i)/21)
		}
	}
	got, tails := windowTail(xs, at, 3, 3)
	if got != 10 {
		t.Errorf("windowTail = %v, want 10", got)
	}
	for w, tl := range tails {
		if tl.Samples != 20 || tl.Percentile != 50 {
			t.Errorf("window %d tail = %+v, want p50 of 20 samples", w, tl)
		}
	}
	if got, _ := windowTail(xs[:50], at[:50], 3, 3); !math.IsNaN(got) {
		t.Errorf("windowTail with a 10-sample window = %v, want NaN", got)
	}
}

func TestGeomeanOfMedians(t *testing.T) {
	got := geomeanOfMedians([][]float64{{3, 1, 2}, {8}, {4, 4}})
	if want := math.Cbrt(2 * 8 * 4); math.Abs(got-want) > 1e-12 {
		t.Errorf("geomeanOfMedians = %v, want %v", got, want)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
}

func TestPooledTailWeighsConfigurationsEqually(t *testing.T) {
	// Two configurations with identical shape at scales 1 and 100: the
	// pooled ratios are the shape twice, so the tail is the shape's
	// tail scaled by the geometric mean of the medians.
	var a, b []float64
	for i := 1; i <= 20; i++ {
		a = append(a, float64(i))
		b = append(b, 100*float64(i))
	}
	got := pooledTail([][]float64{a, b})
	medA := median(a)
	wantRatio := sampleTail(append(scaled(a, 1/medA), scaled(a, 1/medA)...)).Value
	want := wantRatio * math.Sqrt(median(a)*median(b))
	if math.Abs(got.Value-want) > 1e-9 || got.Samples != 40 {
		t.Errorf("pooledTail = %+v, want value %v over 40 samples", got, want)
	}
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
