package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func triangle(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(3)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 3)
	b.AddEdge(0, 2, 5)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuilderBasics(t *testing.T) {
	g := triangle(t)
	if g.NumVertices() != 3 {
		t.Errorf("NumVertices = %d, want 3", g.NumVertices())
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3", g.NumEdges())
	}
	if w := g.EdgeWeight(0, 1); w != 2 {
		t.Errorf("EdgeWeight(0,1) = %d, want 2", w)
	}
	if w := g.EdgeWeight(1, 0); w != 2 {
		t.Errorf("EdgeWeight(1,0) = %d, want 2", w)
	}
	if g.WeightedDegree(0) != 7 || g.WeightedDegree(1) != 5 || g.WeightedDegree(2) != 8 {
		t.Errorf("weighted degrees = %d,%d,%d, want 7,5,8",
			g.WeightedDegree(0), g.WeightedDegree(1), g.WeightedDegree(2))
	}
	if v, d := g.MinDegreeVertex(); v != 1 || d != 5 {
		t.Errorf("MinDegreeVertex = (%d,%d), want (1,5)", v, d)
	}
	if g.TotalWeight() != 10 {
		t.Errorf("TotalWeight = %d, want 10", g.TotalWeight())
	}
}

func TestBuilderAggregatesParallelEdges(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 0, 4)
	b.AddEdge(0, 1, 2)
	g := b.MustBuild()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if w := g.EdgeWeight(0, 1); w != 7 {
		t.Errorf("EdgeWeight = %d, want 7", w)
	}
}

func TestBuilderDropsSelfLoops(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 0, 5)
	b.AddEdge(0, 1, 1)
	g := b.MustBuild()
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1 (self loop dropped)", g.NumEdges())
	}
	if g.WeightedDegree(0) != 1 {
		t.Errorf("WeightedDegree(0) = %d, want 1", g.WeightedDegree(0))
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name string
		u, v int32
		w    int64
	}{
		{"out of range high", 0, 5, 1},
		{"out of range negative", -1, 0, 1},
		{"zero weight", 0, 1, 0},
		{"negative weight", 0, 1, -3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(3)
			b.AddEdge(tc.u, tc.v, tc.w)
			if _, err := b.Build(); err == nil {
				t.Errorf("Build succeeded, want error for edge (%d,%d,%d)", tc.u, tc.v, tc.w)
			}
		})
	}
}

func TestEmptyAndSingletonGraphs(t *testing.T) {
	g := NewBuilder(0).MustBuild()
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Errorf("empty graph: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if v, _ := g.MinDegreeVertex(); v != -1 {
		t.Errorf("MinDegreeVertex on empty graph = %d, want -1", v)
	}
	if !g.IsConnected() {
		t.Error("empty graph should count as connected")
	}
	s := NewBuilder(1).MustBuild()
	if !s.IsConnected() {
		t.Error("singleton graph should be connected")
	}
}

func TestForEachEdgeVisitsEachOnce(t *testing.T) {
	g := triangle(t)
	count := 0
	var total int64
	g.ForEachEdge(func(u, v int32, w int64) {
		if u >= v {
			t.Errorf("ForEachEdge emitted u=%d >= v=%d", u, v)
		}
		count++
		total += w
	})
	if count != 3 || total != 10 {
		t.Errorf("count=%d total=%d, want 3, 10", count, total)
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1)
	g := b.MustBuild() // components {0,1,2}, {3,4}, {5}
	comp, k := g.Components()
	if k != 3 {
		t.Fatalf("k = %d, want 3", k)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Errorf("vertices 0,1,2 not in same component: %v", comp)
	}
	if comp[3] != comp[4] || comp[3] == comp[0] {
		t.Errorf("component structure wrong: %v", comp)
	}
	if comp[5] == comp[0] || comp[5] == comp[3] {
		t.Errorf("vertex 5 should be isolated: %v", comp)
	}
	if g.IsConnected() {
		t.Error("IsConnected = true for 3-component graph")
	}
	lc, orig := g.LargestComponent()
	if lc.NumVertices() != 3 || lc.NumEdges() != 2 {
		t.Errorf("largest component n=%d m=%d, want 3, 2", lc.NumVertices(), lc.NumEdges())
	}
	if len(orig) != 3 || orig[0] != 0 || orig[1] != 1 || orig[2] != 2 {
		t.Errorf("orig = %v, want [0 1 2]", orig)
	}
}

func TestContractTriangle(t *testing.T) {
	g := triangle(t)
	// Merge 0 and 1 into block 0, keep 2 as block 1.
	m := Mapping{Block: []int32{0, 0, 1}, NumBlocks: 2}
	h := g.Contract(m)
	if h.NumVertices() != 2 || h.NumEdges() != 1 {
		t.Fatalf("contracted: n=%d m=%d, want 2, 1", h.NumVertices(), h.NumEdges())
	}
	if w := h.EdgeWeight(0, 1); w != 8 { // 3 (1-2) + 5 (0-2)
		t.Errorf("contracted edge weight = %d, want 8", w)
	}
}

func TestContractEdge(t *testing.T) {
	g := triangle(t)
	h := g.Contract(MergePairMapping(3, 2, 0))
	if h.NumVertices() != 2 || h.NumEdges() != 1 {
		t.Fatalf("n=%d m=%d, want 2,1", h.NumVertices(), h.NumEdges())
	}
	if w := h.EdgeWeight(0, 1); w != 5 { // edges 0-1 (2) and 2-1 (3)
		t.Errorf("weight = %d, want 5", w)
	}

	// Merging a vertex with itself is the identity, not a merge into 0.
	m := MergePairMapping(4, 2, 2)
	if m.NumBlocks != 4 || !slices.Equal(m.Block, []int32{0, 1, 2, 3}) {
		t.Fatalf("MergePairMapping(4, 2, 2) = %v with %d blocks, want the identity", m.Block, m.NumBlocks)
	}
	path := MustFromEdges(4, []Edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}})
	if h := path.Contract(MergePairMapping(4, 3, 3)); !Equal(h, path) {
		t.Errorf("contracting (3,3) changed the path: n=%d m=%d", h.NumVertices(), h.NumEdges())
	}
}

func TestNewMappingFromLabels(t *testing.T) {
	m := NewMappingFromLabels([]int32{7, 3, 7, 9, 3})
	if m.NumBlocks != 3 {
		t.Fatalf("NumBlocks = %d, want 3", m.NumBlocks)
	}
	want := []int32{0, 1, 0, 2, 1}
	for i, b := range m.Block {
		if b != want[i] {
			t.Errorf("Block[%d] = %d, want %d", i, b, want[i])
		}
	}
}

func randomGraph(rng *rand.Rand, n, m int, maxW int64) *Graph {
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		u := rng.Int31n(int32(n))
		v := rng.Int31n(int32(n))
		b.AddEdge(u, v, 1+rng.Int63n(maxW))
	}
	return b.MustBuild()
}

// naiveContract is an independent oracle: plain map aggregation.
func naiveContract(g *Graph, m Mapping) *Graph {
	agg := make(map[uint64]int64)
	g.ForEachEdge(func(u, v int32, w int64) {
		bu, bv := m.Block[u], m.Block[v]
		if bu == bv {
			return
		}
		if bu > bv {
			bu, bv = bv, bu
		}
		agg[uint64(bu)<<32|uint64(uint32(bv))] += w
	})
	edges := make([]Edge, 0, len(agg))
	for k, w := range agg {
		edges = append(edges, Edge{U: int32(k >> 32), V: int32(uint32(k)), Weight: w})
	}
	return MustFromEdges(m.NumBlocks, edges)
}

func TestContractVariantsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(6000)
		g := randomGraph(rng, n, 3*n, 10)
		blocks := rng.Intn(n) + 1
		labels := make([]int32, n)
		for i := range labels {
			labels[i] = rng.Int31n(int32(blocks))
		}
		m := NewMappingFromLabels(labels)
		want := naiveContract(g, m)
		if seq := g.Contract(m); !Equal(want, seq) {
			t.Fatalf("trial %d: Contract differs from naive (n=%d blocks=%d)", trial, n, blocks)
		}
		if par := g.ContractParallel(m, 8); !Equal(want, par) {
			t.Fatalf("trial %d: parallel contraction differs from naive (n=%d blocks=%d)", trial, n, blocks)
		}
		if tab := g.ContractParallelCHT(m, 8); !Equal(want, tab) {
			t.Fatalf("trial %d: hash-table contraction differs from naive (n=%d blocks=%d)", trial, n, blocks)
		}
	}
}

func TestContractParallelSingleBlockAndEdgeless(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomGraph(rng, 5000, 15000, 5)
	all := Mapping{Block: make([]int32, 5000), NumBlocks: 1}
	h := g.ContractParallel(all, 8)
	if h.NumVertices() != 1 || h.NumEdges() != 0 {
		t.Errorf("single-block contraction: n=%d m=%d", h.NumVertices(), h.NumEdges())
	}
}

// The parallel path promises the exact layout of Contract for every
// worker count: the same CSR slices, strictly ascending adjacency lists and
// degrees that sum the row. n is above the single-worker cutoff, so the
// worker counts really split the passes.
func TestContractParallelLayout(t *testing.T) {
	const n = 5000
	rng := rand.New(rand.NewSource(21))
	g := randomGraph(rng, n, 4*n, 50)
	edgeless := NewBuilder(n).MustBuild()
	for _, nc := range []int{1, 2, 100, n / 4, n} {
		m := blockMapping(rng, n, nc)
		for _, in := range []struct {
			name string
			g    *Graph
		}{{"random", g}, {"edgeless", edgeless}} {
			want := in.g.Contract(m)
			if !Equal(want, naiveContract(in.g, m)) {
				t.Fatalf("%s nc=%d: Contract differs from naive", in.name, nc)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				h := in.g.ContractParallel(m, workers)
				got, ref := h.CSR(), want.CSR()
				if !slices.Equal(got.XAdj, ref.XAdj) || !slices.Equal(got.Adj, ref.Adj) ||
					!slices.Equal(got.Wgt, ref.Wgt) || !slices.Equal(got.Deg, ref.Deg) {
					t.Fatalf("%s nc=%d workers=%d: CSR differs from Contract", in.name, nc, workers)
				}
				for b := 0; b < nc; b++ {
					var d int64
					for i := got.XAdj[b]; i < got.XAdj[b+1]; i++ {
						if i > got.XAdj[b] && got.Adj[i-1] >= got.Adj[i] {
							t.Fatalf("%s nc=%d workers=%d: row %d not strictly ascending", in.name, nc, workers, b)
						}
						d += got.Wgt[i]
					}
					if d != got.Deg[b] {
						t.Fatalf("%s nc=%d workers=%d: Deg[%d] = %d, row sums to %d", in.name, nc, workers, b, got.Deg[b], d)
					}
				}
			}
		}
	}
}

// blockMapping spreads n vertices over exactly nc blocks at random.
func blockMapping(rng *rand.Rand, n, nc int) Mapping {
	labels := make([]int32, n)
	for v, p := range rng.Perm(n) {
		labels[v] = int32(p % nc)
	}
	return NewMappingFromLabels(labels)
}

var contractSink *Graph

// BenchmarkContractVariants contracts one graph onto nc random blocks. The
// few-block rows are the case where one worker could end up owning almost
// every arc; run with -cpu 1,N to see both worker counts.
func BenchmarkContractVariants(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 1<<15, 1<<19, 8)
	n := g.NumVertices()
	for _, nc := range []int{1, 2, 1 << 7, 1 << 13, n / 2} {
		m := blockMapping(rng, n, nc)
		b.Run(fmt.Sprintf("nc=%d/sequential", nc), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				contractSink = g.Contract(m)
			}
		})
		b.Run(fmt.Sprintf("nc=%d/cht", nc), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				contractSink = g.ContractParallelCHT(m, 0)
			}
		})
		b.Run(fmt.Sprintf("nc=%d/gather", nc), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				contractSink = g.ContractParallel(m, 0)
			}
		})
	}
}

// Contraction conserves total weight minus intra-block weight.
func TestContractConservesWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(100)
		g := randomGraph(rng, n, 4*n, 100)
		labels := make([]int32, n)
		for i := range labels {
			labels[i] = rng.Int31n(int32(1 + rng.Intn(n)))
		}
		m := NewMappingFromLabels(labels)
		var intra int64
		g.ForEachEdge(func(u, v int32, w int64) {
			if m.Block[u] == m.Block[v] {
				intra += w
			}
		})
		h := g.Contract(m)
		if got, want := h.TotalWeight(), g.TotalWeight()-intra; got != want {
			t.Fatalf("trial %d: contracted weight %d, want %d", trial, got, want)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := triangle(t)
	sub, orig := g.InducedSubgraph([]bool{true, false, true})
	if sub.NumVertices() != 2 || sub.NumEdges() != 1 {
		t.Fatalf("n=%d m=%d, want 2,1", sub.NumVertices(), sub.NumEdges())
	}
	if w := sub.EdgeWeight(0, 1); w != 5 {
		t.Errorf("weight = %d, want 5", w)
	}
	if orig[0] != 0 || orig[1] != 2 {
		t.Errorf("orig = %v, want [0 2]", orig)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := triangle(t)
	h := g.Clone()
	if !Equal(g, h) {
		t.Fatal("clone not equal")
	}
	h.wgt[0] = 99
	if g.wgt[0] == 99 {
		t.Error("clone shares weight storage with original")
	}
}

// Property: for any multiset of edges, building twice yields equal graphs,
// and degrees sum to 2 * total weight.
func TestBuildProperties(t *testing.T) {
	f := func(raw []struct {
		U, V uint8
		W    uint16
	}) bool {
		n := 40
		b1, b2 := NewBuilder(n), NewBuilder(n)
		for _, e := range raw {
			u, v, w := int32(e.U%uint8(n)), int32(e.V%uint8(n)), int64(e.W)+1
			b1.AddEdge(u, v, w)
			b2.AddEdge(u, v, w)
		}
		g1, g2 := b1.MustBuild(), b2.MustBuild()
		if !Equal(g1, g2) {
			return false
		}
		var degSum int64
		for v := 0; v < n; v++ {
			degSum += g1.WeightedDegree(int32(v))
		}
		return degSum == 2*g1.TotalWeight()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDegreeHistogramSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 50, 200, 5)
	h := g.DegreeHistogram()
	for i := 1; i < len(h); i++ {
		if h[i-1] > h[i] {
			t.Fatalf("histogram not sorted at %d", i)
		}
	}
}
