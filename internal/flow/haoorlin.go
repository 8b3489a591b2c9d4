package flow

import (
	"math"

	"repro/internal/graph"
)

// HaoOrlin computes the global minimum cut of a connected weighted graph
// with the algorithm of Hao and Orlin ("A faster algorithm for finding
// the minimum cut in a graph", SODA '92): a sequence of n-1 push-relabel
// phases in which the source set grows by the previous sink, distance
// labels are preserved across phases, and nodes made unreachable by label
// gaps are parked in dormant sets instead of being relabeled past n.
//
// It returns the minimum cut value and a witness side (true = source
// side). For disconnected graphs it returns 0 with a component witness.
// This is the repository's HO-CGKLS stand-in baseline (paper §4.1).
func HaoOrlin(g *graph.Graph) (int64, []bool) {
	n := g.NumVertices()
	if n < 2 {
		return 0, make([]bool, n)
	}
	nw := newNetwork(g)

	const awake = -1
	d := make([]int32, n) // distance labels
	excess := make([]int64, n)
	dormant := make([]int32, n) // awake (-1) or dormancy level ≥ 0
	count := make([]int32, 2*n+2)
	cur := make([]int32, n)
	for i := range dormant {
		dormant[i] = awake
	}

	s := int32(0)
	dormant[s] = 0 // level 0 is the source set S
	level := int32(0)
	d[s] = int32(n)
	count[0] = int32(n - 1)

	// Saturate arcs out of the (possibly growing) source.
	saturate := func(src int32) {
		for _, a := range nw.arcs(src) {
			if nw.res[a] > 0 {
				w := nw.head[a]
				if dormant[w] == 0 {
					continue // stays inside the source set
				}
				f := nw.res[a]
				nw.push(a, f)
				excess[w] += f
			}
		}
	}
	saturate(s)

	best := int64(math.MaxInt64)
	var bestSide []bool

	t := int32(1)
	// Pick the initial sink: any awake vertex (1 works since s=0).

	inS := 1
	for inS < n {
		// --- Phase: push-relabel towards t over awake nodes. ---
		var active []int32
		inActive := make([]bool, n)
		push := func(v int32) {
			if v != t && dormant[v] == awake && excess[v] > 0 && !inActive[v] {
				inActive[v] = true
				active = append(active, v)
			}
		}
		for v := int32(0); v < int32(n); v++ {
			push(v)
		}
		for len(active) > 0 {
			v := active[len(active)-1]
			active = active[:len(active)-1]
			inActive[v] = false
			if dormant[v] != awake || v == t {
				continue
			}
			arcs := nw.arcs(v)
			for excess[v] > 0 && dormant[v] == awake {
				if cur[v] == int32(len(arcs)) {
					cur[v] = 0
					// Need relabel. Uniqueness (gap) check first.
					if count[d[v]] == 1 {
						// v is the only awake node at its level: every awake
						// node at level ≥ d[v] moves to a new dormant set.
						level++
						for u := int32(0); u < int32(n); u++ {
							if dormant[u] == awake && d[u] >= d[v] {
								count[d[u]]--
								dormant[u] = level
							}
						}
						break
					}
					newD := int32(2*n + 1)
					for _, a := range arcs {
						w := nw.head[a]
						if nw.res[a] > 0 && dormant[w] == awake && d[w]+1 < newD {
							newD = d[w] + 1
						}
					}
					if newD > int32(2*n) {
						// No awake residual neighbor: v goes dormant alone.
						level++
						count[d[v]]--
						dormant[v] = level
						break
					}
					count[d[v]]--
					d[v] = newD
					count[newD]++
					continue
				}
				a := arcs[cur[v]]
				w := nw.head[a]
				if nw.res[a] > 0 && dormant[w] == awake && d[v] == d[w]+1 {
					f := excess[v]
					if nw.res[a] < f {
						f = nw.res[a]
					}
					nw.push(a, f)
					excess[v] -= f
					excess[w] += f
					push(w)
				} else {
					cur[v]++
				}
			}
		}

		// --- Phase end: excess[t] is the value of the cut that separates
		// the vertices unable to reach t in the residual graph from the
		// rest. Record it if it improves the best cut so far. ---
		if excess[t] < best {
			best = excess[t]
			bestSide = make([]bool, n)
			nw.residualReach(bestSide, []int32{t}, true, nil)
			for v := range bestSide {
				bestSide[v] = !bestSide[v]
			}
		}

		// --- Move t into the source set and select a new sink. ---
		if dormant[t] == awake {
			count[d[t]]--
		}
		dormant[t] = 0
		inS++
		if inS == n {
			break
		}
		d[t] = int32(n)
		saturate(t)

		// If no awake nodes remain, wake the most recent dormant set.
		hasAwake := false
		for v := int32(0); v < int32(n); v++ {
			if dormant[v] == awake {
				hasAwake = true
				break
			}
		}
		if !hasAwake {
			for v := int32(0); v < int32(n); v++ {
				if dormant[v] == level {
					dormant[v] = awake
					count[d[v]]++
					cur[v] = 0
				}
			}
			level--
		}
		// New sink: awake node with minimum label.
		t = -1
		for v := int32(0); v < int32(n); v++ {
			if dormant[v] == awake && (t < 0 || d[v] < d[t]) {
				t = v
			}
		}
		if t < 0 {
			// Only dormant nodes remain below the current level — can
			// happen on disconnected graphs; wake everything not in S.
			for v := int32(0); v < int32(n); v++ {
				if dormant[v] > 0 {
					dormant[v] = awake
					count[d[v]]++
					cur[v] = 0
					if t < 0 || d[v] < d[t] {
						t = v
					}
				}
			}
			level = 0
		}
	}
	return best, bestSide
}
