package noi

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pq"
	"repro/internal/verify"
)

var variants = []Options{
	{Queue: pq.KindHeap, Bounded: false}, // NOI-HNSS
	{Queue: pq.KindHeap, Bounded: true},  // NOIλ̂-Heap
	{Queue: pq.KindBStack, Bounded: true},
	{Queue: pq.KindBQueue, Bounded: true},
}

func variantName(o Options) string {
	if !o.Bounded {
		return "NOI-HNSS"
	}
	return "NOIbounded-" + o.Queue.String()
}

func TestKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int64
	}{
		{"ring12", gen.Ring(12), 2},
		{"path7", gen.Path(7), 1},
		{"complete7", gen.Complete(7), 6},
		{"star9", gen.Star(9), 1},
		{"barbell6", gen.Barbell(6), 1},
		{"grid4x5", gen.Grid(4, 5), 2},
		{"k2", graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1, Weight: 9}}), 9},
	}
	for _, v := range variants {
		v := v
		t.Run(variantName(v), func(t *testing.T) {
			for _, tc := range cases {
				res := MinimumCut(tc.g, v)
				if res.Value != tc.want {
					t.Errorf("%s: value = %d, want %d", tc.name, res.Value, tc.want)
					continue
				}
				if err := verify.ValidateWitness(tc.g, res.Side, res.Value); err != nil {
					t.Errorf("%s: %v", tc.name, err)
				}
			}
		})
	}
}

func TestAgainstBruteForce(t *testing.T) {
	for _, v := range variants {
		v := v
		t.Run(variantName(v), func(t *testing.T) {
			for seed := uint64(0); seed < 100; seed++ {
				n := 4 + int(seed%11)
				var g *graph.Graph
				if seed%2 == 0 {
					g = gen.ConnectedGNM(n, 3*n, seed)
				} else {
					g = gen.GNMWeighted(n, 2*n, 8, seed)
				}
				want, _ := verify.BruteForceMinCut(g)
				v.Seed = seed
				res := MinimumCut(g, v)
				if res.Value != want {
					t.Fatalf("seed %d (n=%d): value = %d, want %d", seed, n, res.Value, want)
				}
				if want > 0 {
					if err := verify.ValidateWitness(g, res.Side, want); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
			}
		})
	}
}

// Bounding the priority queue must not change the result (Lemma 3.1).
func TestBoundedMatchesUnbounded(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		g := gen.BarabasiAlbert(300, 3, seed)
		unbounded := MinimumCut(g, Options{Queue: pq.KindHeap, Bounded: false, Seed: seed})
		for _, kind := range []pq.Kind{pq.KindHeap, pq.KindBStack, pq.KindBQueue} {
			bounded := MinimumCut(g, Options{Queue: kind, Bounded: true, Seed: seed})
			if bounded.Value != unbounded.Value {
				t.Fatalf("seed %d: bounded %s = %d, unbounded = %d",
					seed, kind, bounded.Value, unbounded.Value)
			}
		}
	}
}

func TestDisconnectedAndTrivial(t *testing.T) {
	res := MinimumCut(graph.NewBuilder(0).MustBuild(), variants[0])
	if res.Value != 0 || res.Side != nil {
		t.Error("empty graph should report 0 with nil side")
	}
	res = MinimumCut(graph.NewBuilder(1).MustBuild(), variants[0])
	if res.Value != 0 {
		t.Error("singleton should report 0")
	}
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1, 3)
	b.AddEdge(2, 3, 3)
	b.AddEdge(3, 4, 3)
	g := b.MustBuild()
	res = MinimumCut(g, variants[1])
	if res.Value != 0 {
		t.Fatalf("disconnected: value = %d, want 0", res.Value)
	}
	if err := verify.ValidateWitness(g, res.Side, 0); err != nil {
		t.Fatal(err)
	}
}

func TestInitialBoundSpeedsButPreservesResult(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		n := 6 + int(seed%8)
		g := gen.ConnectedGNM(n, 3*n, seed^0x9)
		want, wantSide := verify.BruteForceMinCut(g)
		// Simulate a perfect VieCut: pass the exact bound and witness.
		res := MinimumCut(g, Options{
			Queue: pq.KindBStack, Bounded: true,
			InitialBound: want, InitialSide: wantSide, Seed: seed,
		})
		if res.Value != want {
			t.Fatalf("seed %d: with perfect bound, value = %d, want %d", seed, res.Value, want)
		}
		if err := verify.ValidateWitness(g, res.Side, want); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// A loose bound (min degree × 2, not a real cut below δ) must not
		// break anything either: pass bound above δ; it is ignored.
		res2 := MinimumCut(g, Options{
			Queue: pq.KindHeap, Bounded: true,
			InitialBound: 2 * res.Value, Seed: seed,
		})
		if res2.Value != want {
			t.Fatalf("seed %d: with loose bound, value = %d, want %d", seed, res2.Value, want)
		}
	}
}

func TestPlantedCutRecovered(t *testing.T) {
	g, planted := gen.PlantedCut(40, 45, 300, 2, 4)
	res := MinimumCut(g, Options{Queue: pq.KindBQueue, Bounded: true})
	plantedVal := verify.CutValue(g, planted)
	if res.Value > plantedVal {
		t.Fatalf("value %d exceeds planted cut %d", res.Value, plantedVal)
	}
	if err := verify.ValidateWitness(g, res.Side, res.Value); err != nil {
		t.Fatal(err)
	}
}

func TestWitnessOnLargerGraphs(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := gen.RHG(1200, 12, 5, seed)
		lc, _ := g.LargestComponent()
		if lc.NumVertices() < 10 {
			continue
		}
		for _, v := range variants {
			res := MinimumCut(lc, v)
			if err := verify.ValidateWitness(lc, res.Side, res.Value); err != nil {
				t.Fatalf("seed %d %s: %v", seed, variantName(v), err)
			}
		}
	}
}

// All variants agree with each other on medium graphs where brute force is
// infeasible.
func TestVariantsAgree(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		g := gen.BarabasiAlbert(600, 2, seed)
		want := int64(-1)
		for _, v := range variants {
			v.Seed = seed
			res := MinimumCut(g, v)
			if want < 0 {
				want = res.Value
			} else if res.Value != want {
				t.Fatalf("seed %d: %s = %d, others = %d", seed, variantName(v), res.Value, want)
			}
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	g := gen.ConnectedGNM(200, 800, 1)
	res := MinimumCut(g, Options{Queue: pq.KindHeap, Bounded: true})
	if res.Rounds == 0 || res.Stats.Pops == 0 {
		t.Errorf("stats empty: rounds=%d pops=%d", res.Rounds, res.Stats.Pops)
	}
}

// With four workers the rounds on at least 4096 vertices run the
// parallel CAPFOREST; the value must match the one-worker run and the
// witness must be a genuine cut of that value. CI runs this under the
// race detector with GOMAXPROCS=4.
func TestParallelRoundsAgree(t *testing.T) {
	graphs := []*graph.Graph{
		gen.ConnectedGNM(4096, 16384, 5),
		gen.BarabasiAlbert(5000, 3, 2),
	}
	for i, g := range graphs {
		if g.NumVertices() < 4*1024 {
			t.Fatalf("graph %d: %d vertices is too few for a four-worker round", i, g.NumVertices())
		}
		for _, v := range variants[1:] {
			v.Seed = uint64(i)
			want := MinimumCut(g, v).Value
			v.Workers = 4
			res := MinimumCut(g, v)
			if res.Value != want {
				t.Fatalf("graph %d %s: 4 workers %d, 1 worker %d", i, variantName(v), res.Value, want)
			}
			if err := verify.ValidateWitness(g, res.Side, res.Value); err != nil {
				t.Fatalf("graph %d %s: %v", i, variantName(v), err)
			}
			if res.Rounds == 0 {
				t.Fatalf("graph %d %s: no round ran", i, variantName(v))
			}
		}
	}
}

// Only a disconnected graph has a zero cut, and MinimumCut answers it with
// the component of vertex 0 whichever scan finds the zero cut: the
// sequential one, a four-worker parallel one, or the degree of a
// contracted vertex.
func TestDisconnectedWitnessIsComponentOfVertex0(t *testing.T) {
	for _, parts := range [][2]int{{3, 2}, {40, 1}, {300, 500}, {5000, 3000}} {
		// Shuffle the ids so neither component is a contiguous range.
		n := parts[0] + parts[1]
		perm := gen.NewRNG(uint64(n)).Perm(n)
		bld := graph.NewBuilder(n)
		for i, off := range []int32{0, int32(parts[0])} {
			gen.ConnectedGNM(parts[i], 3*parts[i], uint64(i)).ForEachEdge(func(u, v int32, w int64) {
				bld.AddEdge(perm[off+u], perm[off+v], w)
			})
		}
		g := bld.MustBuild()
		comp, k := g.Components()
		if k != 2 {
			t.Fatalf("parts %v: %d components", parts, k)
		}
		for _, v := range variants {
			for _, workers := range []int{1, 4} {
				v.Workers = workers
				res := MinimumCut(g, v)
				if res.Value != 0 {
					t.Fatalf("parts %v %s w%d: value %d, want 0", parts, variantName(v), workers, res.Value)
				}
				for x, in := range res.Side {
					if in != (comp[x] == comp[0]) {
						t.Fatalf("parts %v %s w%d: the witness is not the component of vertex 0", parts, variantName(v), workers)
					}
				}
			}
		}
	}
}

// A cancelled context stops the loop before its first round; the partial
// result is the minimum-degree cut.
func TestCancelledBeforeFirstRound(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := gen.ConnectedGNM(300, 1200, 7)
	res := MinimumCut(g, Options{Queue: pq.KindBQueue, Bounded: true, Workers: 2, Ctx: ctx})
	if _, delta := g.MinDegreeVertex(); res.Rounds != 0 || res.Value != delta {
		t.Fatalf("rounds=%d value=%d, want 0 rounds and δ=%d", res.Rounds, res.Value, delta)
	}
}

func BenchmarkNOIVariantsGNM(b *testing.B) {
	g := gen.ConnectedGNM(5000, 25000, 3)
	for _, v := range variants {
		v := v
		b.Run(variantName(v), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MinimumCut(g, v)
			}
		})
	}
}
