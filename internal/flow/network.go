// Package flow implements maximum-flow and flow-based minimum-cut
// algorithms. One Dinic augmenting routine, reached through Progressive,
// serves every s-t flow: single-pair minimum cuts (STMinCutCtx), the
// Gomory–Hu flow-equivalent tree (GusfieldTree), minimum s-t cut
// enumeration (STEnum) and the Karzanov–Timofeev steps of the
// all-minimum-cuts pipeline. Beside it sits the Hao–Orlin global
// minimum-cut algorithm — the strongest flow-based competitor in the
// paper's experiments (HO-CGKLS, §4.1).
package flow

import (
	"repro/internal/graph"
)

// network is a residual flow network in adjacency-array form. Every
// undirected edge {u,v} of capacity c becomes a pair of arcs u→v and v→u,
// each with initial residual capacity c and each the reverse of the other:
// pushing f along arc a subtracts f from res[a] and adds f to res[a^1].
// Arcs are allocated in pairs so the reverse of arc a is a^1.
type network struct {
	n     int
	first []int32 // first[v]: start of v's arc indices in ids
	head  []int32 // arc target
	res   []int64 // residual capacity
	ids   []int32 // arc index lists, CSR by tail
}

// newNetwork builds the residual network of g in a single pass over the
// graph's flat CSR arrays. The graph stores every undirected edge in both
// endpoints' adjacency ranges, so the network's per-vertex arc counts are
// exactly the CSR offsets; arcs are allocated in pairs (2e, 2e+1) the first
// time edge e is seen (at its smaller endpoint) and scattered into both
// endpoints' id ranges through per-vertex cursors.
func newNetwork(g *graph.Graph) *network {
	cs := g.CSR()
	n := g.NumVertices()
	m := g.NumEdges()
	nw := &network{
		n:     n,
		first: make([]int32, n+1),
		head:  make([]int32, 2*m),
		res:   make([]int64, 2*m),
		ids:   make([]int32, 2*m),
	}
	for v := 0; v <= n; v++ {
		nw.first[v] = int32(cs.XAdj[v])
	}
	next := make([]int32, n)
	copy(next, nw.first[:n])
	e := int32(0)
	for u := 0; u < n; u++ {
		for i, end := cs.XAdj[u], cs.XAdj[u+1]; i < end; i++ {
			v := cs.Adj[i]
			if int32(u) >= v {
				continue
			}
			w := cs.Wgt[i]
			nw.head[2*e] = v
			nw.res[2*e] = w
			nw.head[2*e+1] = int32(u)
			nw.res[2*e+1] = w
			nw.ids[next[u]] = 2 * e
			next[u]++
			nw.ids[next[v]] = 2*e + 1
			next[v]++
			e++
		}
	}
	return nw
}

// arcs returns the arc indices leaving v.
func (nw *network) arcs(v int32) []int32 { return nw.ids[nw.first[v]:nw.first[v+1]] }

// push moves f units along arc a.
func (nw *network) push(a int32, f int64) {
	nw.res[a] -= f
	nw.res[a^1] += f
}

// residualReach marks in seen (length n) every vertex joined to roots
// by residual arcs: every vertex reachable FROM the roots when toward is
// false, every vertex that can REACH a root when toward is true (a
// backward search along arcs whose reverse has residual capacity).
// stack is scratch space; the emptied stack is returned so its backing
// array can be reused by the next call.
func (nw *network) residualReach(seen []bool, roots []int32, toward bool, stack []int32) []int32 {
	rev := int32(0)
	if toward {
		rev = 1 // arc a is v→w; the arc w→v is a^1
	}
	for i := range seen {
		seen[i] = false
	}
	stack = stack[:0]
	for _, r := range roots {
		if !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range nw.arcs(v) {
			w := nw.head[a]
			if !seen[w] && nw.res[a^rev] > 0 {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return stack
}
