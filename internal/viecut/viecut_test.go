package viecut

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/verify"
)

func TestLabelPropagationClusteringStructure(t *testing.T) {
	// Two dense blocks with a weak bridge: LP should separate them.
	g, planted := gen.PlantedCut(60, 60, 400, 1, 3)
	labels := LabelPropagation(g, 3, 2, 1)
	// Count how many planted pairs straddle label boundaries vs not:
	// the bridge should not merge the two blocks into one label.
	left := map[int32]bool{}
	right := map[int32]bool{}
	for v, l := range labels {
		if planted[v] {
			left[l] = true
		} else {
			right[l] = true
		}
	}
	shared := 0
	for l := range left {
		if right[l] {
			shared++
		}
	}
	if shared > len(left) && shared > len(right) {
		t.Errorf("labels fully blended across the planted cut (shared=%d)", shared)
	}
	if len(left) == 0 || len(right) == 0 {
		t.Error("labels vanished")
	}
}

func TestLabelPropagationDeterministicSingleWorker(t *testing.T) {
	g := gen.ConnectedGNM(200, 600, 4)
	a := LabelPropagation(g, 2, 1, 9)
	b := LabelPropagation(g, 2, 1, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("single-worker LP should be deterministic")
		}
	}
}

func TestLabelPropagationEmptyAndTiny(t *testing.T) {
	if got := LabelPropagation(graph.NewBuilder(0).MustBuild(), 2, 4, 1); len(got) != 0 {
		t.Error("empty graph should give empty labels")
	}
	g := gen.Ring(3)
	labels := LabelPropagation(g, 1, 8, 1)
	if len(labels) != 3 {
		t.Error("labels length wrong")
	}
}

// VieCut's value must always be a genuine cut (witness validates) and at
// least λ; on these instances it should equal λ nearly always, matching
// the paper's observation.
func TestVieCutSoundUpperBound(t *testing.T) {
	exact := 0
	total := 0
	for seed := uint64(0); seed < 40; seed++ {
		n := 6 + int(seed%10)
		g := gen.ConnectedGNM(n, 3*n, seed)
		lambda, _ := verify.BruteForceMinCut(g)
		res := Run(g, Options{Workers: 2, Seed: seed})
		if res.Value < lambda {
			t.Fatalf("seed %d: VieCut %d below λ %d (unsound)", seed, res.Value, lambda)
		}
		if err := verify.ValidateWitness(g, res.Side, res.Value); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		total++
		if res.Value == lambda {
			exact++
		}
	}
	if exact*10 < total*8 {
		t.Errorf("VieCut exact on only %d/%d small instances; expected near-optimal behaviour", exact, total)
	}
}

func TestVieCutOnLargerGraphs(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		g := gen.RHG(4000, 16, 5, seed)
		lc, _ := g.LargestComponent()
		if lc.NumVertices() < 1000 {
			continue
		}
		res := Run(lc, Options{Workers: 4, Seed: seed})
		if err := verify.ValidateWitness(lc, res.Side, res.Value); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, d := lc.MinDegreeVertex(); res.Value > d {
			t.Errorf("seed %d: VieCut %d above min degree %d", seed, res.Value, d)
		}
		if res.Levels == 0 {
			t.Error("expected at least one coarsening level on n=4000")
		}
	}
}

func TestVieCutPlantedCutFound(t *testing.T) {
	// Strong blocks, 2-edge bridge: VieCut should find the planted cut.
	g, planted := gen.PlantedCut(500, 500, 3000, 2, 7)
	plantedVal := verify.CutValue(g, planted)
	_, delta := g.MinDegreeVertex()
	if plantedVal >= delta {
		t.Skip("planted cut not below min degree; instance unusable")
	}
	res := Run(g, Options{Workers: 4, Seed: 1, BaseSize: 64})
	if res.Value > plantedVal {
		t.Errorf("VieCut %d did not reach planted cut %d", res.Value, plantedVal)
	}
	if err := verify.ValidateWitness(g, res.Side, res.Value); err != nil {
		t.Fatal(err)
	}
}

func TestVieCutTrivialInputs(t *testing.T) {
	if res := Run(graph.NewBuilder(1).MustBuild(), Options{}); res.Value != 0 {
		t.Error("singleton should be 0")
	}
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g := b.MustBuild()
	res := Run(g, Options{})
	if res.Value != 0 {
		t.Fatalf("disconnected = %d, want 0", res.Value)
	}
	if err := verify.ValidateWitness(g, res.Side, 0); err != nil {
		t.Fatal(err)
	}
	k2 := graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1, Weight: 4}})
	res = Run(k2, Options{})
	if res.Value != 4 {
		t.Fatalf("K2 = %d, want 4", res.Value)
	}
}

// Property: VieCut is sandwiched λ ≤ VieCut ≤ δ on arbitrary connected
// graphs, with a valid witness (quick-driven).
func TestPropertyVieCutSandwich(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 4 + int(nRaw%10)
		g := gen.ConnectedGNM(n, 3*n, seed)
		lambda, _ := verify.BruteForceMinCut(g)
		_, delta := g.MinDegreeVertex()
		res := Run(g, Options{Workers: 2, Seed: seed, BaseSize: 8})
		if res.Value < lambda || res.Value > delta {
			t.Logf("VieCut %d outside [λ=%d, δ=%d]", res.Value, lambda, delta)
			return false
		}
		return verify.ValidateWitness(g, res.Side, res.Value) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// benchWorkers are the worker counts the benchmarks sweep: one, and every
// core the process may use.
func benchWorkers() []int {
	if p := runtime.GOMAXPROCS(0); p > 1 {
		return []int{1, p}
	}
	return []int{1}
}

func BenchmarkVieCutRHG(b *testing.B) {
	g := gen.RHG(1<<13, 16, 5, 1)
	lc, _ := g.LargestComponent()
	for _, w := range benchWorkers() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Run(lc, Options{Workers: w, Seed: uint64(i)})
			}
		})
	}
}

// BenchmarkLabelPropagation times VieCut's first-level clustering, two
// iterations, on a power-law graph of the size of the Figure 5 social
// instance.
func BenchmarkLabelPropagation(b *testing.B) {
	g := gen.BarabasiAlbert(1<<15, 25, 1)
	for _, w := range benchWorkers() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				LabelPropagation(g, 2, w, uint64(i))
			}
		})
	}
}

// disjointUnion places the parts side by side and then renames vertex v
// to perm[v] (the identity when perm is nil). It returns the graph and
// the part of every vertex.
func disjointUnion(perm []int32, parts ...*graph.Graph) (*graph.Graph, []int) {
	n := 0
	for _, p := range parts {
		n += p.NumVertices()
	}
	id := func(v int) int32 {
		if perm == nil {
			return int32(v)
		}
		return perm[v]
	}
	b := graph.NewBuilder(n)
	part := make([]int, n)
	off := 0
	for i, p := range parts {
		p.ForEachEdge(func(u, v int32, w int64) {
			b.AddEdge(id(off+int(u)), id(off+int(v)), w)
		})
		for v := 0; v < p.NumVertices(); v++ {
			part[id(off+v)] = i
		}
		off += p.NumVertices()
	}
	return b.MustBuild(), part
}

// checkComponentOfVertex0 asserts the disconnected-graph contract of Run
// at workers 1, 2 and 4: Value 0 and Side exactly vertex 0's part.
func checkComponentOfVertex0(t *testing.T, name string, g *graph.Graph, part []int) {
	t.Helper()
	for _, w := range []int{1, 2, 4} {
		res := Run(g, Options{Workers: w, Seed: 5})
		if res.Value != 0 {
			t.Fatalf("%s, workers %d: Value %d, want 0", name, w, res.Value)
		}
		for v := range part {
			if res.Side[v] != (part[v] == part[0]) {
				t.Fatalf("%s, workers %d: Side[%d] = %v, but vertex 0 is in part %d and vertex %d in part %d",
					name, w, v, res.Side[v], part[0], v, part[v])
			}
		}
	}
}

// Above BaseSize, Run finds disconnection on the graph clustered by the
// first level of label propagation; the answer must still be exactly the
// component of vertex 0 of the input.
func TestVieCutDisconnectedAboveBaseSize(t *testing.T) {
	big, small := gen.BarabasiAlbert(3000, 3, 1), gen.BarabasiAlbert(1500, 3, 2)
	isolated := graph.NewBuilder(1).MustBuild()

	// Vertex 0 isolated.
	g, part := disjointUnion(nil, isolated, big, small)
	checkComponentOfVertex0(t, "vertex 0 isolated", g, part)

	// Vertex 0 in the larger part, with the ids of all parts interleaved:
	// the name 0 goes to the first vertex of big.
	perm := gen.NewRNG(3).Perm(3000 + 1500 + 1)
	for v := range perm {
		if perm[v] == 0 {
			perm[v], perm[0] = perm[0], 0
		}
	}
	g, part = disjointUnion(perm, big, small, isolated)
	checkComponentOfVertex0(t, "vertex 0 in the larger part", g, part)

	// Cliques collapse to one label each, so the first contraction leaves
	// one vertex per component and no edge.
	cliques := []*graph.Graph{gen.Complete(60), gen.Complete(70), gen.Complete(80)}
	perm = gen.NewRNG(4).Perm(210)
	g, part = disjointUnion(perm, cliques...)
	if m := graph.NewMappingFromLabels(LabelPropagation(g, 2, 1, 6)); m.NumBlocks != len(cliques) {
		t.Fatalf("label propagation gave %d clusters on %d cliques", m.NumBlocks, len(cliques))
	}
	checkComponentOfVertex0(t, "one cluster per component", g, part)
}

// Property: a label only spreads along edges, so no label class of
// LabelPropagation spans two components of a disconnected graph.
func TestPropertyLabelPropagationWithinComponents(t *testing.T) {
	f := func(seed uint64, sizes [3]uint16) bool {
		parts := make([]*graph.Graph, len(sizes))
		n := 0
		for i, s := range sizes {
			k := 1 + int(s)%2500
			parts[i] = gen.GNM(k, 2*k, seed+uint64(i))
			n += k
		}
		g, _ := disjointUnion(gen.NewRNG(seed).Perm(n), parts...)
		comp, _ := g.Components()
		for _, w := range []int{1, 4} {
			labels := LabelPropagation(g, 2, w, seed)
			compOf := map[int32]int32{}
			for v, l := range labels {
				if c, ok := compOf[l]; ok && c != comp[v] {
					t.Logf("workers %d: label %d spans components %d and %d", w, l, c, comp[v])
					return false
				}
				compOf[l] = comp[v]
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
