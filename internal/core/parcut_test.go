package core

import (
	"context"
	"slices"
	"testing"

	"repro/internal/baseline"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/noi"
	"repro/internal/pq"
	"repro/internal/verify"
	"repro/internal/viecut"
)

func defaultOpts(workers int) Options {
	return Options{Workers: workers, Queue: pq.KindBQueue, Bounded: true}
}

func TestKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int64
	}{
		{"ring16", gen.Ring(16), 2},
		{"path9", gen.Path(9), 1},
		{"complete8", gen.Complete(8), 7},
		{"barbell7", gen.Barbell(7), 1},
		{"grid5x5", gen.Grid(5, 5), 2},
		{"k2", graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1, Weight: 12}}), 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, _ := ParallelMinimumCut(context.Background(), tc.g, defaultOpts(4))
			if res.Value != tc.want {
				t.Fatalf("value = %d, want %d", res.Value, tc.want)
			}
			if err := verify.ValidateWitness(tc.g, res.Side, res.Value); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAgainstBruteForce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for seed := uint64(0); seed < 60; seed++ {
			n := 4 + int(seed%11)
			var g *graph.Graph
			if seed%2 == 0 {
				g = gen.ConnectedGNM(n, 3*n, seed)
			} else {
				g = gen.GNMWeighted(n, 2*n, 8, seed)
			}
			want, _ := verify.BruteForceMinCut(g)
			opts := defaultOpts(workers)
			opts.Seed = seed
			res, _ := ParallelMinimumCut(context.Background(), g, opts)
			if res.Value != want {
				t.Fatalf("workers=%d seed=%d (n=%d): value = %d, want %d",
					workers, seed, n, res.Value, want)
			}
			if want > 0 {
				if err := verify.ValidateWitness(g, res.Side, want); err != nil {
					t.Fatalf("workers=%d seed=%d: %v", workers, seed, err)
				}
			}
		}
	}
}

// The parallel solver must agree with the sequential solvers and Hao–Orlin
// on graphs too large for brute force — the full cross-algorithm
// integration test.
func TestCrossAlgorithmAgreement(t *testing.T) {
	instances := []struct {
		name string
		g    *graph.Graph
	}{
		{"ba", gen.BarabasiAlbert(800, 3, 1)},
		{"rmat", mustLC(gen.RMATDefault(10, 6, 2))},
		{"rhg", mustLC(gen.RHG(1000, 12, 5, 3))},
		{"gnm", gen.ConnectedGNM(700, 2800, 4)},
		{"planted", plantedOnly(gen.PlantedCut(250, 250, 1200, 3, 5))},
	}
	for _, inst := range instances {
		t.Run(inst.name, func(t *testing.T) {
			want := noi.MinimumCut(inst.g, noi.Options{Queue: pq.KindHeap}).Value
			if got, _ := baseline.StoerWagner(inst.g); got != want {
				t.Fatalf("StoerWagner = %d, NOI = %d", got, want)
			}
			if got, _ := flow.HaoOrlin(inst.g); got != want {
				t.Fatalf("HaoOrlin = %d, NOI = %d", got, want)
			}
			for _, workers := range []int{1, 4, 8} {
				opts := defaultOpts(workers)
				res, _ := ParallelMinimumCut(context.Background(), inst.g, opts)
				if res.Value != want {
					t.Fatalf("ParCut(workers=%d) = %d, want %d", workers, res.Value, want)
				}
				if err := verify.ValidateWitness(inst.g, res.Side, want); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
			}
		})
	}
}

func mustLC(g *graph.Graph) *graph.Graph {
	lc, _ := g.LargestComponent()
	return lc
}

func plantedOnly(g *graph.Graph, _ []bool) *graph.Graph { return g }

func TestAllQueueKindsAgree(t *testing.T) {
	g := gen.BarabasiAlbert(500, 3, 7)
	want := noi.MinimumCut(g, noi.Options{Queue: pq.KindHeap}).Value
	for _, kind := range []pq.Kind{pq.KindBStack, pq.KindBQueue, pq.KindHeap} {
		res, _ := ParallelMinimumCut(context.Background(), g, Options{Workers: 4, Queue: kind, Bounded: true})
		if res.Value != want {
			t.Errorf("queue %s: value = %d, want %d", kind, res.Value, want)
		}
	}
}

func TestVieCutAblation(t *testing.T) {
	g := gen.ConnectedGNM(400, 1600, 9)
	with, _ := ParallelMinimumCut(context.Background(), g, Options{Workers: 4, Queue: pq.KindBQueue, Bounded: true})
	without, _ := ParallelMinimumCut(context.Background(), g, Options{Workers: 4, Queue: pq.KindBQueue, Bounded: true, DisableVieCut: true})
	if with.Value != without.Value {
		t.Fatalf("VieCut ablation changed the value: %d vs %d", with.Value, without.Value)
	}
	if with.VieCutValue == 0 {
		t.Error("VieCutValue should be recorded when enabled")
	}
	if without.VieCutValue != 0 {
		t.Error("VieCutValue should be 0 when disabled")
	}
}

func TestDisconnectedAndTrivial(t *testing.T) {
	for _, disable := range []bool{false, true} {
		opts := defaultOpts(2)
		opts.DisableVieCut = disable
		if res, _ := ParallelMinimumCut(context.Background(), graph.NewBuilder(0).MustBuild(), opts); res.Value != 0 {
			t.Errorf("DisableVieCut=%v: empty graph", disable)
		}
		if res, _ := ParallelMinimumCut(context.Background(), graph.NewBuilder(1).MustBuild(), opts); res.Value != 0 {
			t.Errorf("DisableVieCut=%v: singleton", disable)
		}
		// Components {0,1,2} and {3,4}, then the same with an isolated
		// vertex 5: the witness is always the component of vertex 0, never
		// the minimum-degree vertex.
		for _, n := range []int{5, 6} {
			b := graph.NewBuilder(n)
			b.AddEdge(0, 1, 2)
			b.AddEdge(1, 2, 2)
			b.AddEdge(3, 4, 2)
			g := b.MustBuild()
			opts.Workers = 4
			res, _ := ParallelMinimumCut(context.Background(), g, opts)
			if res.Value != 0 {
				t.Fatalf("DisableVieCut=%v n=%d: disconnected = %d, want 0", disable, n, res.Value)
			}
			for v, in := range res.Side {
				if in != (v <= 2) {
					t.Fatalf("DisableVieCut=%v n=%d: side %v, want the component of vertex 0", disable, n, res.Side)
				}
			}
			if err := verify.ValidateWitness(g, res.Side, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestValueDeterministicAcrossWorkerCounts(t *testing.T) {
	g := mustLC(gen.RHG(2000, 16, 5, 11))
	want := int64(-1)
	for _, workers := range []int{1, 2, 4, 8, 16} {
		res, _ := ParallelMinimumCut(context.Background(), g, defaultOpts(workers))
		if want < 0 {
			want = res.Value
		} else if res.Value != want {
			t.Fatalf("workers=%d: value %d != %d", workers, res.Value, want)
		}
	}
}

// The paper's best sequential configuration (NOIλ̂-Heap with a VieCut
// bound, the bottom row of Figure 5) is ParCut at one worker with the
// heap.
func TestSequentialBaseline(t *testing.T) {
	g := gen.ConnectedGNM(300, 1200, 13)
	want := noi.MinimumCut(g, noi.Options{Queue: pq.KindHeap}).Value
	res, _ := ParallelMinimumCut(context.Background(), g, Options{Workers: 1, Queue: pq.KindHeap, Bounded: true, Seed: 1})
	if res.Value != want {
		t.Fatalf("ParCut(workers=1, heap) = %d, want %d", res.Value, want)
	}
	if err := verify.ValidateWitness(g, res.Side, want); err != nil {
		t.Fatal(err)
	}
}

// At one worker ParCut is NOIλ̂ seeded with the VieCut bound: the same
// value, witness, rounds and queue traffic, and no sequential fallback
// (every round is already the sequential scan, Algorithm 1 with one
// worker).
func TestParCutAtOneWorkerIsNOI(t *testing.T) {
	var graphs []*graph.Graph
	for seed := uint64(1); seed <= 12; seed++ {
		for _, n := range []int{8, 16, 33} {
			graphs = append(graphs, gen.ConnectedGNM(n, n-1+int(seed%uint64(2*n)), seed*131+uint64(n)))
		}
		if g := mustLC(gen.GNMWeighted(20, 20+int(seed%20), 3, seed*977)); g.NumVertices() >= 2 {
			graphs = append(graphs, g)
		}
	}
	for n := 3; n <= 16; n++ {
		graphs = append(graphs, gen.Ring(n))
	}
	for _, blocks := range []int{2, 3, 4} {
		graphs = append(graphs, gen.CliqueChain(blocks, 4))
	}
	graphs = append(graphs, gen.Ring(3000), mustLC(gen.RHG(2000, 16, 5, 11)), gen.BarabasiAlbert(1500, 4, 3))

	for i, g := range graphs {
		seed := uint64(i + 1)
		par, err := ParallelMinimumCut(context.Background(), g, Options{Workers: 1, Queue: pq.KindBQueue, Bounded: true, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		vc := viecut.Run(g, viecut.Options{Workers: 1, Seed: seed})
		seq := noi.MinimumCut(g, noi.Options{Queue: pq.KindBQueue, Bounded: true, Seed: seed, InitialBound: vc.Value, InitialSide: vc.Side})
		if par.Value != seq.Value || !slices.Equal(par.Side, seq.Side) {
			t.Fatalf("graph %d (n=%d): ParCut %d, NOI %d, or the witnesses differ", i, g.NumVertices(), par.Value, seq.Value)
		}
		if par.Rounds != seq.Rounds || par.Stats != seq.Stats {
			t.Fatalf("graph %d (n=%d): ParCut ran %d rounds %+v, NOI %d rounds %+v",
				i, g.NumVertices(), par.Rounds, par.Stats, seq.Rounds, seq.Stats)
		}
		if par.SeqFallbacks != 0 {
			t.Fatalf("graph %d: %d sequential fallbacks at one worker", i, par.SeqFallbacks)
		}
	}
}

func TestStatsAndRounds(t *testing.T) {
	g := gen.BarabasiAlbert(1000, 4, 3)
	res, _ := ParallelMinimumCut(context.Background(), g, defaultOpts(4))
	if res.Rounds == 0 {
		t.Error("rounds not counted")
	}
	if res.Stats.Pops == 0 {
		t.Error("stats not aggregated")
	}
	if res.Timing.VieCut <= 0 || res.Timing.Scan <= 0 || res.Timing.Contract <= 0 {
		t.Errorf("phase timings missing: %+v", res.Timing)
	}
	if res.Timing.Total() != res.Timing.VieCut+res.Timing.Scan+res.Timing.Contract {
		t.Error("Total inconsistent")
	}
	noVC, _ := ParallelMinimumCut(context.Background(), g, Options{Workers: 4, Queue: pq.KindBQueue, Bounded: true, DisableVieCut: true})
	if noVC.Timing.VieCut != 0 {
		t.Error("VieCut timing should be zero when disabled")
	}
}

func BenchmarkParCutWorkers(b *testing.B) {
	g := mustLC(gen.RHG(1<<13, 32, 5, 1))
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(map[bool]string{true: "w"}[true]+itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ParallelMinimumCut(context.Background(), g, defaultOpts(workers))
			}
		})
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}
