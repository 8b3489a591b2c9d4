package gen

import (
	"repro/internal/graph"
)

// RMAT generates a recursive-matrix (R-MAT) graph with 2^scale vertices
// and approximately edgeFactor*2^scale undirected edges, using the
// standard (a,b,c,d) quadrant probabilities. Self loops are dropped and
// parallel edges aggregated, so the realized edge count is slightly lower
// than requested — exactly as with the RMAT instances referenced in §4.1
// of the paper. Weights are 1.
func RMAT(scale int, edgeFactor int, a, b, c float64, seed uint64) *graph.Graph {
	n := 1 << scale
	m := edgeFactor * n
	rng := NewRNG(seed)
	gb := graph.NewBuilder(n)
	// Noise keeps the degree distribution from becoming too regular, as in
	// the Graph500 reference generator.
	for i := 0; i < m; i++ {
		u, v := 0, 0
		ab := a + b
		abc := a + b + c
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < a:
				// upper-left: nothing to add
			case r < ab:
				v |= 1 << bit
			case r < abc:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u != v {
			gb.AddEdge(int32(u), int32(v), 1)
		}
	}
	return gb.MustBuild()
}

// RMATDefault uses the common (0.57, 0.19, 0.19, 0.05) parameters.
func RMATDefault(scale, edgeFactor int, seed uint64) *graph.Graph {
	return RMAT(scale, edgeFactor, 0.57, 0.19, 0.19, seed)
}

// BarabasiAlbert generates a preferential-attachment power-law graph: each
// new vertex attaches k edges to existing vertices chosen proportionally
// to their current degree (via the repeated-endpoint trick). The result
// has hubs of very high degree and low diameter — the two structural
// properties of the paper's web and social instances that drive its
// priority-queue findings (§4.2: "they contain vertices with very high
// degrees" so NOIλ̂ saves many queue updates). Weights are 1.
func BarabasiAlbert(n, k int, seed uint64) *graph.Graph {
	if k < 1 {
		k = 1
	}
	if n < k+1 {
		n = k + 1
	}
	rng := NewRNG(seed)
	b := graph.NewBuilder(n)
	// endpoints holds every edge endpoint ever created; sampling a uniform
	// element of it samples a vertex with probability proportional to its
	// degree.
	endpoints := make([]int32, 0, 2*k*n)
	// Seed clique over the first k+1 vertices.
	for i := 0; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			b.AddEdge(int32(i), int32(j), 1)
			endpoints = append(endpoints, int32(i), int32(j))
		}
	}
	chosen := map[int32]bool{}
	targets := make([]int32, 0, k)
	for v := k + 1; v < n; v++ {
		clear(chosen)
		targets = targets[:0]
		for len(targets) < k {
			t := endpoints[rng.Intn(len(endpoints))]
			if int(t) != v && !chosen[t] {
				chosen[t] = true
				targets = append(targets, t)
			}
		}
		// Targets are appended in the order they were first drawn, not in
		// map order, so later degree-proportional draws depend on the
		// seed alone.
		for _, t := range targets {
			b.AddEdge(int32(v), t, 1)
			endpoints = append(endpoints, int32(v), t)
		}
	}
	return b.MustBuild()
}
