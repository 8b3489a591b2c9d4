package graph

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/cht"
)

// Mapping is a dense relabeling of vertices: Mapping[v] is the id of the
// contracted vertex that v belongs to, in [0, NumBlocks).
type Mapping struct {
	Block     []int32
	NumBlocks int
}

// NewMappingFromLabels densifies an arbitrary labeling (labels need not be
// contiguous) into a Mapping with blocks numbered in order of first
// appearance.
func NewMappingFromLabels(labels []int32) Mapping {
	block := make([]int32, len(labels))
	remap := make(map[int32]int32, 16)
	next := int32(0)
	for v, l := range labels {
		b, ok := remap[l]
		if !ok {
			b = next
			remap[l] = b
			next++
		}
		block[v] = b
	}
	return Mapping{Block: block, NumBlocks: int(next)}
}

// Contract builds the contracted graph G/Mapping: one vertex per block,
// edges between distinct blocks aggregated by weight, intra-block edges
// dropped. Adjacency lists come out neighbor-sorted. It runs the
// block-owned gather single-threaded; see ContractParallel for the
// shared-memory parallel version.
func (g *Graph) Contract(m Mapping) *Graph {
	if len(m.Block) != g.NumVertices() {
		panic(fmt.Sprintf("graph: mapping length %d != n %d", len(m.Block), g.NumVertices()))
	}
	return g.contractGather(m, 1)
}

// ContractParallel is Contract with the block-owned gather spread over
// workers: each worker owns a range of whole blocks and writes them only
// into result slots fixed before it starts, so the CSR is byte-identical
// to Contract's for every worker count and interleaving. workers ≤ 0 means
// GOMAXPROCS; graphs with fewer than 4096 vertices are contracted by one
// worker.
//
// This is an engineering refinement over the paper's §3.2 scheme (worker
// maps flushed into a shared concurrent hash table): it needs no atomics,
// no hashing and no per-arc sort. The paper-faithful implementation
// remains available as ContractParallelCHT and in the ablation
// benchmarks.
func (g *Graph) ContractParallel(m Mapping, workers int) *Graph {
	if len(m.Block) != g.NumVertices() {
		panic(fmt.Sprintf("graph: mapping length %d != n %d", len(m.Block), g.NumVertices()))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := g.NumVertices()
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 1<<12 {
		workers = 1
	}
	return g.contractGather(m, workers)
}

// contractGather is the block-owned contraction shared by Contract
// (workers = 1) and ContractParallel:
//
//   - pass 0, over vertex ranges: cross[u] counts the arcs leaving u's
//     block;
//   - a counting sort lists each block's boundary vertices (cross > 0) in
//     ascending id order, and the blocks are split into worker ranges of
//     equal crossing-arc volume;
//   - pass 1, over the block ranges: each worker stamps the distinct
//     neighbor blocks of its blocks and counts, per neighbor c, how many of
//     its blocks touch c. That gives the exact xadj and, because the
//     contracted graph is symmetric, each worker's slots in every row;
//   - pass 2, over the same ranges: each worker sums a block b's arcs into
//     a dense accumulator and appends b, with the summed weight, to the row
//     of every block it touched.
//
// Workers own ascending block ranges and visit their blocks in ascending
// order, so every row fills in ascending neighbor order without a sort.
// Pass 0 keeps interior arcs out of the block-owned passes, so a few huge
// blocks do not leave all the scanning to one worker.
func (g *Graph) contractGather(m Mapping, workers int) *Graph {
	n, nc := g.NumVertices(), m.NumBlocks
	block := m.Block

	// Pass 0.
	cross := make([]int32, n)
	parallelRanges(n, workers, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			bu := block[u]
			var c int32
			for _, v := range g.adj[g.xadj[u]:g.xadj[u+1]] {
				if block[v] != bu {
					c++
				}
			}
			cross[u] = c
		}
	})

	// Member lists: members[first[b]:first[b+1]] are b's boundary vertices.
	first := make([]int32, nc+1)
	total := 0
	for u, c := range cross {
		if c > 0 {
			first[block[u]+1]++
			total += int(c)
		}
	}
	if total == 0 {
		return &Graph{xadj: make([]int, nc+1), adj: []int32{}, wgt: []int64{}, deg: make([]int64, nc)}
	}
	for b := 1; b <= nc; b++ {
		first[b] += first[b-1]
	}
	members := make([]int32, first[nc])
	for u, c := range cross {
		if c > 0 {
			b := block[u]
			members[first[b]] = int32(u)
			first[b]++
		}
	}
	copy(first[1:], first[:nc]) // the fill advanced first[b] to b's end
	first[0] = 0

	// Worker ranges of blocks with equal crossing-arc volume.
	bounds := make([]int, workers+1)
	for b, w, vol := 0, 1, 0; w < workers; b++ {
		for _, u := range members[first[b]:first[b+1]] {
			vol += int(cross[u])
		}
		for ; w < workers && vol*workers >= w*total; w++ {
			bounds[w] = b + 1
		}
	}
	bounds[workers] = nc

	// Pass 1. slot[w][c] counts worker w's blocks adjacent to c.
	slot := make([][]int, workers)
	runWorkers(bounds, func(w, lo, hi int) {
		cnt := make([]int, nc)
		stamp := make([]int32, nc) // stamp[c] == b+1: c already seen from b
		for b := lo; b < hi; b++ {
			mark := int32(b) + 1
			stamp[b] = mark // no loops
			for _, u := range members[first[b]:first[b+1]] {
				for _, v := range g.adj[g.xadj[u]:g.xadj[u+1]] {
					if c := block[v]; stamp[c] != mark {
						stamp[c] = mark
						cnt[c]++
					}
				}
			}
		}
		slot[w] = cnt
	})

	// Row lengths and each worker's first slot in every row.
	xadj := make([]int, nc+1)
	for c := 0; c < nc; c++ {
		at := xadj[c]
		for _, cnt := range slot {
			if cnt != nil {
				cnt[c], at = at, at+cnt[c]
			}
		}
		xadj[c+1] = at
	}

	// Pass 2. Weights are positive, so a zero sum marks an untouched block;
	// b itself collects its interior weight and is skipped when writing.
	adj := make([]int32, xadj[nc])
	wgt := make([]int64, xadj[nc])
	deg := make([]int64, nc)
	runWorkers(bounds, func(w, lo, hi int) {
		next := slot[w]
		sum := make([]int64, nc)
		var touched []int32
		for b := lo; b < hi; b++ {
			touched = touched[:0]
			for _, u := range members[first[b]:first[b+1]] {
				for i := g.xadj[u]; i < g.xadj[u+1]; i++ {
					c := block[g.adj[i]]
					if sum[c] == 0 {
						touched = append(touched, c)
					}
					sum[c] += g.wgt[i]
				}
			}
			var d int64
			for _, c := range touched {
				if c != int32(b) {
					adj[next[c]], wgt[next[c]] = int32(b), sum[c]
					next[c]++
					d += sum[c]
				}
				sum[c] = 0
			}
			deg[b] = d
		}
	})
	return &Graph{xadj: xadj, adj: adj, wgt: wgt, deg: deg}
}

// parallelRanges runs fn over [0,n) split into equal worker chunks and
// waits.
func parallelRanges(n, workers int, fn func(lo, hi int)) {
	chunk := (n + workers - 1) / workers
	bounds := make([]int, workers+1)
	for w := range bounds {
		bounds[w] = min(w*chunk, n)
	}
	runWorkers(bounds, func(_, lo, hi int) { fn(lo, hi) })
}

// runWorkers calls fn(w, bounds[w], bounds[w+1]) for every non-empty
// range, one goroutine per range when there are several, and waits.
func runWorkers(bounds []int, fn func(w, lo, hi int)) {
	if len(bounds) == 2 {
		fn(0, bounds[0], bounds[1])
		return
	}
	var wg sync.WaitGroup
	for w := 0; w+1 < len(bounds); w++ {
		lo, hi := bounds[w], bounds[w+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, lo, hi)
		}()
	}
	wg.Wait()
}

// ContractParallelCHT is the paper-faithful §3.2 contraction: worker-local
// pair aggregation flushed into a shared concurrent hash table. Kept for
// the design-choice ablation; ContractParallel is the production path.
func (g *Graph) ContractParallelCHT(m Mapping, workers int) *Graph {
	if len(m.Block) != g.NumVertices() {
		panic(fmt.Sprintf("graph: mapping length %d != n %d", len(m.Block), g.NumVertices()))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := g.NumVertices()
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 1<<12 {
		return g.Contract(m)
	}

	// Phase 1: worker-local aggregation over vertex ranges.
	locals := make([]map[uint64]int64, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			locals[w] = map[uint64]int64{}
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			local := make(map[uint64]int64, (g.xadj[hi]-g.xadj[lo])/2+1)
			for u := lo; u < hi; u++ {
				bu := m.Block[u]
				for i := g.xadj[u]; i < g.xadj[u+1]; i++ {
					v := g.adj[i]
					if v <= int32(u) {
						continue // each undirected edge handled once
					}
					bv := m.Block[v]
					if bu == bv {
						continue
					}
					a, b := bu, bv
					if a > b {
						a, b = b, a
					}
					// a < b, so b ≥ 1 and the packed key is never the
					// table's reserved zero key.
					local[uint64(a)<<32|uint64(uint32(b))] += g.wgt[i]
				}
			}
			locals[w] = local
		}(w, lo, hi)
	}
	wg.Wait()

	// Phase 2: flush the private maps into the shared table in parallel.
	capacity := 0
	for _, l := range locals {
		capacity += len(l)
	}
	if capacity == 0 {
		h, err := FromEdges(m.NumBlocks, nil)
		if err != nil {
			panic(err)
		}
		return h
	}
	tab := cht.New(capacity)
	for w := 0; w < workers; w++ {
		if len(locals[w]) == 0 {
			continue
		}
		wg.Add(1)
		go func(local map[uint64]int64) {
			defer wg.Done()
			for k, v := range local {
				if !tab.Add(k, v) {
					panic("graph: contraction hash table overflow")
				}
			}
		}(locals[w])
	}
	wg.Wait()

	// Phase 3: extract unique pairs and assemble the CSR by counting
	// scatter; sorting each adjacency list afterwards makes the layout
	// deterministic.
	edges := make([]Edge, 0, tab.Len())
	tab.ForEach(func(k uint64, wgt int64) {
		edges = append(edges, Edge{U: int32(k >> 32), V: int32(uint32(k)), Weight: wgt})
	})
	return fromUniqueEdges(m.NumBlocks, edges, workers)
}

// fromUniqueEdges assembles a CSR from a list of distinct loop-free edges
// (u < v) without the global sort of FromEdges. Adjacency lists come out
// sorted ascending, which FromEdges's "smaller neighbors first, then
// larger" layout is not; both orders are valid and Equal compares edge
// sets, not layouts.
func fromUniqueEdges(n int, edges []Edge, workers int) *Graph {
	xadj := make([]int, n+1)
	for _, e := range edges {
		xadj[e.U+1]++
		xadj[e.V+1]++
	}
	for i := 1; i <= n; i++ {
		xadj[i] += xadj[i-1]
	}
	adj := make([]int32, xadj[n])
	wgt := make([]int64, xadj[n])
	next := make([]int, n)
	copy(next, xadj[:n])
	for _, e := range edges {
		adj[next[e.U]], wgt[next[e.U]] = e.V, e.Weight
		next[e.U]++
		adj[next[e.V]], wgt[next[e.V]] = e.U, e.Weight
		next[e.V]++
	}
	deg := make([]int64, n)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for v := lo; v < hi; v++ {
				a := adj[xadj[v]:xadj[v+1]]
				ws := wgt[xadj[v]:xadj[v+1]]
				sort.Sort(&adjSorter{a, ws})
				var d int64
				for _, x := range ws {
					d += x
				}
				deg[v] = d
			}
		}(lo, hi)
	}
	wg.Wait()
	return &Graph{xadj: xadj, adj: adj, wgt: wgt, deg: deg}
}

// adjSorter sorts an adjacency list and its weights by neighbor id.
type adjSorter struct {
	adj []int32
	wgt []int64
}

func (s *adjSorter) Len() int           { return len(s.adj) }
func (s *adjSorter) Less(i, j int) bool { return s.adj[i] < s.adj[j] }
func (s *adjSorter) Swap(i, j int) {
	s.adj[i], s.adj[j] = s.adj[j], s.adj[i]
	s.wgt[i], s.wgt[j] = s.wgt[j], s.wgt[i]
}

// MergePairMapping builds the contraction mapping over n vertices that
// merges exactly a and b and keeps every other vertex separate. For a == b
// it is the identity.
func MergePairMapping(n int, a, b int32) Mapping {
	if a > b {
		a, b = b, a
	}
	block := make([]int32, n)
	next := int32(0)
	for v := 0; v < n; v++ {
		if int32(v) == b && a != b {
			block[v] = block[a] // a < b: already assigned
			continue
		}
		block[v] = next
		next++
	}
	return Mapping{Block: block, NumBlocks: int(next)}
}

// InducedSubgraph returns the subgraph induced by keep (vertices with
// keep[v] true) together with the mapping from new ids to original ids.
func (g *Graph) InducedSubgraph(keep []bool) (*Graph, []int32) {
	n := g.NumVertices()
	if len(keep) != n {
		panic(fmt.Sprintf("graph: keep length %d != n %d", len(keep), n))
	}
	newID := make([]int32, n)
	var orig []int32
	next := int32(0)
	for v := 0; v < n; v++ {
		if keep[v] {
			newID[v] = next
			orig = append(orig, int32(v))
			next++
		} else {
			newID[v] = -1
		}
	}
	var edges []Edge
	g.ForEachEdge(func(u, v int32, w int64) {
		if keep[u] && keep[v] {
			edges = append(edges, Edge{U: newID[u], V: newID[v], Weight: w})
		}
	})
	h, err := FromEdges(int(next), edges)
	if err != nil {
		panic(err)
	}
	return h, orig
}

// Components labels the connected components of g. It returns the label of
// each vertex (labels are 0..k-1 in order of discovery) and k, the number
// of components.
func (g *Graph) Components() ([]int32, int) {
	n := g.NumVertices()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var stack []int32
	k := int32(0)
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = k
		stack = append(stack[:0], int32(s))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for i, end := g.xadj[v], g.xadj[v+1]; i < end; i++ {
				if u := g.adj[i]; comp[u] < 0 {
					comp[u] = k
					stack = append(stack, u)
				}
			}
		}
		k++
	}
	return comp, int(k)
}

// IsConnected reports whether g is connected. The empty graph and the
// single-vertex graph are considered connected.
func (g *Graph) IsConnected() bool {
	_, k := g.Components()
	return k <= 1
}

// LargestComponent returns the subgraph induced by the largest connected
// component and the original ids of its vertices.
func (g *Graph) LargestComponent() (*Graph, []int32) {
	comp, k := g.Components()
	if k <= 1 {
		return g, IdentityLabels(g.NumVertices())
	}
	sizes := make([]int, k)
	for _, c := range comp {
		sizes[c]++
	}
	best := 0
	for c := 1; c < k; c++ {
		if sizes[c] > sizes[best] {
			best = c
		}
	}
	keep := make([]bool, g.NumVertices())
	for v, c := range comp {
		keep[v] = int(c) == best
	}
	return g.InducedSubgraph(keep)
}

// DegreeHistogram returns the sorted multiset of unweighted degrees, a
// helper for generator tests and the experiment tables.
func (g *Graph) DegreeHistogram() []int {
	n := g.NumVertices()
	h := make([]int, n)
	for v := 0; v < n; v++ {
		h[v] = g.Degree(int32(v))
	}
	sort.Ints(h)
	return h
}
