package flow

import (
	"math"

	"repro/internal/graph"
)

// MaxFlowEK computes the s-t maximum flow of the undirected graph g with
// the Edmonds–Karp algorithm (BFS shortest augmenting paths). It returns
// the flow value and the s-side of a minimum s-t cut. O(V·E²); it is the
// test suite's s-t oracle, independent of the Dinic routine behind
// Progressive.
func MaxFlowEK(g *graph.Graph, s, t int32) (int64, []bool) {
	if err := checkST(g, s, t); err != nil {
		panic(err)
	}
	nw := newNetwork(g)
	parentArc := make([]int32, nw.n)
	var total int64
	for {
		// BFS in the residual graph.
		for i := range parentArc {
			parentArc[i] = -1
		}
		parentArc[s] = -2
		queue := []int32{s}
		found := false
	bfs:
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, a := range nw.arcs(v) {
				w := nw.head[a]
				if parentArc[w] == -1 && nw.res[a] > 0 {
					parentArc[w] = a
					if w == t {
						found = true
						break bfs
					}
					queue = append(queue, w)
				}
			}
		}
		if !found {
			break
		}
		// Bottleneck along the path.
		bottleneck := int64(math.MaxInt64)
		for v := t; v != s; {
			a := parentArc[v]
			if nw.res[a] < bottleneck {
				bottleneck = nw.res[a]
			}
			v = nw.head[a^1]
		}
		for v := t; v != s; {
			a := parentArc[v]
			nw.push(a, bottleneck)
			v = nw.head[a^1]
		}
		total += bottleneck
	}
	side := make([]bool, nw.n)
	nw.residualReach(side, []int32{s}, false, nil)
	return total, side
}
