package baseline

import (
	"math"

	"repro/internal/dsu"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/verify"
)

// KargerStein runs the randomized recursive contraction algorithm of
// Karger and Stein (J.ACM 1996) for the given number of independent
// trials and returns the best cut found. Each trial succeeds with
// probability Ω(1/log n); Θ(log² n) trials give a high-probability
// guarantee. The returned value never undershoots λ (every candidate is a
// real cut); it may overshoot when trials are too few — this is the
// Monte Carlo behaviour the paper's §2.2 describes.
func KargerStein(g *graph.Graph, trials int, seed uint64) (int64, []bool) {
	n := g.NumVertices()
	if n < 2 {
		return 0, nil
	}
	if comp, k := g.Components(); k > 1 {
		return 0, graph.LiftBlock(comp, comp[0])
	}
	if trials < 1 {
		trials = 1
	}
	rng := gen.NewRNG(seed)
	best := int64(math.MaxInt64)
	var bestSide []bool
	for i := 0; i < trials; i++ {
		v, side := ksRecurse(g, rng.Fork())
		if v < best {
			best = v
			bestSide = side
		}
	}
	return best, bestSide
}

// RecommendedTrials returns the Θ(log² n) trial count for a
// high-probability result.
func RecommendedTrials(n int) int {
	if n < 2 {
		return 1
	}
	l := math.Log2(float64(n))
	return int(math.Ceil(l*l)) + 1
}

func ksRecurse(g *graph.Graph, rng *gen.RNG) (int64, []bool) {
	n := g.NumVertices()
	if n <= 6 {
		return verify.BruteForceMinCut(g)
	}
	target := int(math.Ceil(1 + float64(n)/math.Sqrt2))
	best := int64(math.MaxInt64)
	var bestSide []bool
	for i := 0; i < 2; i++ {
		mapping, blocks := contractTo(g, target, rng)
		h := g.Contract(graph.Mapping{Block: mapping, NumBlocks: blocks})
		v, side := ksRecurse(h, rng)
		if v < best {
			best = v
			bestSide = make([]bool, n)
			for u := 0; u < n; u++ {
				bestSide[u] = side[mapping[u]]
			}
		}
	}
	return best, bestSide
}

// contractTo contracts uniformly weight-proportional random edges until
// only target merged vertices remain (or the remainder is edgeless). A
// Fenwick tree over the edge list supports weighted sampling; edges whose
// endpoints have already merged are removed lazily on first sampling,
// which keeps the distribution over non-loop edges exact (rejection
// sampling).
func contractTo(g *graph.Graph, target int, rng *gen.RNG) ([]int32, int) {
	edges := g.Edges()
	fw := newFenwick(len(edges))
	var total int64
	for i, e := range edges {
		fw.add(i, e.Weight)
		total += e.Weight
	}
	d := dsu.New(g.NumVertices())
	alive := g.NumVertices()
	for alive > target && total > 0 {
		r := rng.Int63n(total) + 1
		idx := fw.findPrefix(r)
		e := edges[idx]
		fw.add(idx, -e.Weight)
		total -= e.Weight
		if d.Union(e.U, e.V) {
			alive--
		}
	}
	return d.Mapping()
}

// fenwick is a binary indexed tree over int64 values supporting point
// updates, and prefix-threshold search in O(log n).
type fenwick struct {
	tree []int64
	size int
}

func newFenwick(n int) *fenwick {
	size := 1
	for size < n {
		size <<= 1
	}
	return &fenwick{tree: make([]int64, size+1), size: size}
}

// add increases element i by delta.
func (f *fenwick) add(i int, delta int64) {
	for i++; i <= f.size; i += i & (-i) {
		f.tree[i] += delta
	}
}

// findPrefix returns the smallest index i such that the prefix sum through
// i is ≥ r. r must be in [1, total].
func (f *fenwick) findPrefix(r int64) int {
	pos := 0
	for step := f.size; step > 0; step >>= 1 {
		next := pos + step
		if next <= f.size && f.tree[next] < r {
			pos = next
			r -= f.tree[next]
		}
	}
	return pos // 0-indexed element
}
