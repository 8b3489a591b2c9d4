package pr

import (
	"testing"

	"repro/internal/dsu"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/verify"
)

// The defining property: applying the tests with a valid bound λ̂ ≤ δ must
// never destroy all minimum cuts when λ < λ̂.
func TestPreservesMinimumCut(t *testing.T) {
	for seed := uint64(0); seed < 120; seed++ {
		n := 5 + int(seed%9)
		g := gen.GNMWeighted(n, 3*n, 6, seed)
		if !g.IsConnected() {
			continue
		}
		lambda, _ := verify.BruteForceMinCut(g)
		_, delta := g.MinDegreeVertex()
		u := dsu.New(n)
		Apply(g, delta, u)
		mapping, blocks := u.Mapping()
		if blocks < 2 {
			// Fully contracted: only allowed if λ̂ = δ already equals λ.
			if lambda != delta {
				t.Fatalf("seed %d: fully contracted but λ=%d < δ=%d", seed, lambda, delta)
			}
			continue
		}
		h := g.Contract(graph.Mapping{Block: mapping, NumBlocks: blocks})
		var after int64
		if blocks == 2 {
			after = h.WeightedDegree(0)
		} else {
			after, _ = verify.BruteForceMinCut(h)
		}
		if lambda < delta && after != lambda {
			t.Fatalf("seed %d: λ=%d (δ=%d) became %d after PR contraction", seed, lambda, delta, after)
		}
		if after < lambda {
			t.Fatalf("seed %d: contraction created a smaller cut %d < λ=%d (impossible)", seed, after, lambda)
		}
	}
}

func TestPR1ContractsHeavyEdge(t *testing.T) {
	// Triangle with one heavy edge; bound 2 < heavy weight.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 10)
	b.AddEdge(1, 2, 1)
	b.AddEdge(0, 2, 1)
	g := b.MustBuild()
	u := dsu.New(3)
	if Apply(g, 2, u) == 0 {
		t.Fatal("PR1 should contract the weight-10 edge")
	}
	if !u.Same(0, 1) {
		t.Error("vertices 0,1 should be merged")
	}
}

func TestPR2ContractsDominatedVertex(t *testing.T) {
	// Vertex 2 has degree weight 3, edge (1,2) weighs 2 ≥ 3/2.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 5)
	b.AddEdge(1, 2, 2)
	b.AddEdge(2, 3, 1)
	b.AddEdge(0, 3, 5)
	g := b.MustBuild()
	u := dsu.New(4)
	Apply(g, 3, u)
	if !u.Same(1, 2) {
		t.Error("PR2 should merge 1 and 2 (2c(e)=4 ≥ c(2)=3)")
	}
}

func TestPR3UsesTriangles(t *testing.T) {
	// Edge (0,1) weight 1, common neighbors 2 and 3 each adding
	// min(1,1)=1: total 3 ≥ λ̂=3, while no single edge passes PR1 and
	// degrees are balanced so PR2 fails.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 2, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(0, 3, 1)
	b.AddEdge(1, 3, 1)
	b.AddEdge(0, 4, 1)
	b.AddEdge(1, 4, 1)
	b.AddEdge(2, 4, 1)
	b.AddEdge(3, 4, 1)
	g := b.MustBuild()
	u := dsu.New(5)
	Apply(g, 4, u)
	if !u.Same(0, 1) {
		t.Error("PR3 should merge 0 and 1 via shared neighbors")
	}
}

func TestApplyRepeatedlyShrinks(t *testing.T) {
	g := gen.Complete(20)
	_, delta := g.MinDegreeVertex()
	// Alternate Apply and contraction until a pass makes no union.
	h, labels := g, graph.IdentityLabels(g.NumVertices())
	for h.NumVertices() > 2 {
		u := dsu.New(h.NumVertices())
		if Apply(h, delta, u) == 0 {
			break
		}
		mapping, blocks := u.Mapping()
		h = h.Contract(graph.Mapping{Block: mapping, NumBlocks: blocks})
		graph.ComposeLabels(labels, mapping)
	}
	if h.NumVertices() > 2 {
		t.Errorf("K20 should collapse nearly completely, still %d vertices", h.NumVertices())
	}
	if len(labels) != 20 {
		t.Errorf("labels length %d", len(labels))
	}
	for _, l := range labels {
		if int(l) >= h.NumVertices() {
			t.Fatalf("label %d out of range %d", l, h.NumVertices())
		}
	}
}

func TestApplyWithConcurrentDSU(t *testing.T) {
	g := gen.Complete(10)
	u := dsu.NewConcurrent(10)
	if Apply(g, 9, u) == 0 {
		t.Error("expected contractions on K10")
	}
}

// Two K5s of weight-10 edges, joined by the edge 1–6 of weight 1 and
// through vertex 10, which hangs off 0 and 5 by weight 3 each. λ = 4 (the
// K5 on 0–4 against the rest), δ = 6 (vertex 10). PR1 merges each K5, and
// PR2 merges 10 with 0 and, separately, with 5: each edge alone keeps a
// minimum cut (10 can sit on either side of it at the same cost), but the
// two together leave one block. So a single pass collapses the graph
// although λ < λ̂, and a collapse certifies nothing.
func TestApplyCollapseIsNotACertificate(t *testing.T) {
	b := graph.NewBuilder(11)
	for _, base := range []int32{0, 5} {
		for i := int32(0); i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				b.AddEdge(base+i, base+j, 10)
			}
		}
	}
	b.AddEdge(10, 0, 3)
	b.AddEdge(10, 5, 3)
	b.AddEdge(1, 6, 1)
	g := b.MustBuild()
	lambda, _ := verify.BruteForceMinCut(g)
	_, delta := g.MinDegreeVertex()
	if lambda != 4 || delta != 6 {
		t.Fatalf("λ=%d δ=%d, want λ=4 δ=6", lambda, delta)
	}
	u := dsu.New(11)
	Apply(g, delta, u)
	if _, blocks := u.Mapping(); blocks != 1 {
		t.Fatalf("one pass left %d blocks, want the whole graph merged", blocks)
	}
}

func TestSparseGraphFewContractions(t *testing.T) {
	// A long cycle has no heavy edges, no dominated vertices and no
	// triangles; with bound 2 = λ nothing should contract via PR3/PR4,
	// but PR2 applies everywhere (2c(e)=2 ≥ c(v)=2). PR2 holds per edge
	// only, so the unions may merge the whole ring; what must never
	// happen is a contracted graph with a cut below λ.
	g := gen.Ring(12)
	u := dsu.New(12)
	Apply(g, 2, u)
	mapping, blocks := u.Mapping()
	if blocks >= 2 {
		h := g.Contract(graph.Mapping{Block: mapping, NumBlocks: blocks})
		after := int64(0)
		if blocks == 2 {
			after = h.WeightedDegree(0)
		} else {
			after, _ = verify.BruteForceMinCut(h)
		}
		if after < 2 {
			t.Fatalf("cycle mincut dropped to %d", after)
		}
	}
}
