package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"

	mincut "repro"
	"repro/internal/bench"
	"repro/internal/gen"
)

// instance is one input graph of a workload: generated, relabelled by
// the run's seed, written to a METIS file and read back through
// mincut.ReadGraphFile. Only the file reaches the program.
type instance struct {
	name string
	path string
	// written is the shape of the generated graph, which every read of
	// path must reproduce.
	written graphShape
	g       *mincut.Graph // as read from path
	// lambda and cuts are the set-up reference answers.
	lambda int64
	cuts   int
	// batches are the seeded write operations on this instance: each
	// deletes an existing edge and re-inserts it with its weight, so the
	// graph, and every reference answer, stays the same.
	batches [][]mincut.Mutation
}

// graphShape is a graph's vertex count, edge count and total weight.
type graphShape struct {
	n, m int
	w    int64
}

func shapeOf(g *mincut.Graph) graphShape {
	return graphShape{g.NumVertices(), g.NumEdges(), g.TotalWeight()}
}

type namedGraph struct {
	name string
	g    *mincut.Graph
}

// graphSeed generates every instance's structure. The instance sets
// are fixed, like the paper's datasets (fig5-solve's are exactly those of
// cmd/bench -experiment fig5 -scale medium); the run's seed relabels
// their vertices, see rotate.
const graphSeed = 1

// fig5Graphs is the paper's Figure 5 scaling set at medium scale.
func fig5Graphs() []namedGraph {
	s := bench.MediumScale()
	s.Seed = graphSeed
	var out []namedGraph
	for _, in := range bench.ScalingInstances(s) {
		out = append(out, namedGraph{in.Name, in.G})
	}
	return out
}

// allCutsGraphs is the cycle-heavy all-cuts set: a unit ring and a star
// of cycles with closed-form cut counts, and a random hyperbolic graph.
func allCutsGraphs() []namedGraph {
	return []namedGraph{
		{"ring_1024", gen.Ring(1024)},
		{"starofcycles_16_64", gen.StarOfCycles(16, 64)},
		{"rhg_13_6", rhgComponent(13, 6)},
	}
}

// daemonGraph is the graph mincutd-mixed serves.
func daemonGraph() namedGraph {
	return namedGraph{"rhg_13_5", rhgComponent(13, 5)}
}

// rhgComponent is the largest component of a random hyperbolic graph
// with 2^scale vertices, average degree 2^degExp and power-law
// exponent 5, the RHG family of the paper's experiments.
func rhgComponent(scale, degExp int) *mincut.Graph {
	g := gen.RHG(1<<scale, float64(int(1)<<degExp), 5, graphSeed)
	lc, _ := g.LargestComponent()
	return lc
}

// rotate relabels every graph's vertices v -> (v + k) mod n with a
// seeded k per graph. The relabelled graph is isomorphic to the original,
// so λ, the cut count and the work are unchanged and the reference
// answers are comparable across seeds, but the program sees other vertex
// ids, start vertices and tie-breaks; the id order, and with it memory
// locality, is kept up to one wrap-around.
func rotate(graphs []namedGraph, seed uint64) ([]namedGraph, error) {
	rng := gen.NewRNG(seed)
	out := make([]namedGraph, len(graphs))
	for i, ng := range graphs {
		n := ng.g.NumVertices()
		k := int32(rng.Intn(n))
		edges := make([]mincut.Edge, 0, ng.g.NumEdges())
		ng.g.ForEachEdge(func(u, v int32, w int64) {
			edges = append(edges, mincut.Edge{U: (u + k) % int32(n), V: (v + k) % int32(n), Weight: w})
		})
		g, err := mincut.FromEdges(n, edges)
		if err != nil {
			return nil, fmt.Errorf("relabelling %s: %w", ng.name, err)
		}
		out[i] = namedGraph{ng.name, g}
	}
	return out, nil
}

// ringCuts and starOfCyclesCuts are the closed-form minimum-cut counts.
func ringCuts(n int) int { return n * (n - 1) / 2 }

func starOfCyclesCuts(arms, armLen int) int { return arms * (armLen + 1) * armLen / 2 }

// writeInstances writes each graph as METIS into dir.
func writeInstances(dir string, graphs []namedGraph) ([]*instance, error) {
	out := make([]*instance, 0, len(graphs))
	for _, ng := range graphs {
		path := filepath.Join(dir, ng.name+".metis")
		if err := writeMETIS(path, ng.g); err != nil {
			return nil, err
		}
		out = append(out, &instance{name: ng.name, path: path, written: shapeOf(ng.g)})
	}
	return out, nil
}

func writeMETIS(path string, g *mincut.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := mincut.WriteMETIS(w, g); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readInstance reads in's file through the public API and checks that
// the program parsed the graph that was written.
func readInstance(in *instance) (*mincut.Graph, error) {
	g, err := mincut.ReadGraphFile(in.path, "metis")
	if err != nil {
		return nil, err
	}
	if got := shapeOf(g); got != in.written {
		return nil, wrongf("%s read back as %+v, wrote %+v", in.name, got, in.written)
	}
	return g, nil
}

// seededEdges draws count existing edges of g. The i-th edge starts at
// vertex ⌊n·frac(x + i/φ)⌋ for a seeded x and goes to a seeded neighbour.
// The golden-ratio sequence spreads every prefix of the list evenly over
// the vertex ids, so a run that applies the first k batches samples the
// same mix of cheap and expensive writes (their cost depends on where the
// edge sits in the cut structure) whatever the seed. The same seed always
// draws the same edges.
func seededEdges(g *mincut.Graph, count int, seed uint64) []mincut.Edge {
	const invPhi = 0.6180339887498949
	rng := gen.NewRNG(seed)
	x := rng.Float64()
	n := g.NumVertices()
	out := make([]mincut.Edge, 0, count)
	for i := 0; len(out) < count; i++ {
		_, frac := math.Modf(x + float64(i)*invPhi)
		u := int32(frac * float64(n))
		nb := g.Neighbors(u)
		if len(nb) == 0 {
			continue
		}
		j := rng.Intn(len(nb))
		out = append(out, mincut.Edge{U: u, V: nb[j], Weight: g.Weights(u)[j]})
	}
	return out
}

// replaceBatches turns edges into delete-then-reinsert batches.
func replaceBatches(edges []mincut.Edge) [][]mincut.Mutation {
	out := make([][]mincut.Mutation, len(edges))
	for i, e := range edges {
		out[i] = []mincut.Mutation{mincut.DeleteEdge(e.U, e.V), mincut.InsertEdge(e.U, e.V, e.Weight)}
	}
	return out
}

// seededOrder is a seeded permutation of 0..n-1.
func seededOrder(n int, rng *gen.RNG) []int {
	out := make([]int, n)
	for i, v := range rng.Perm(n) {
		out[i] = int(v)
	}
	return out
}
