package mincut

import (
	"bytes"
	"testing"

	"repro/internal/verify"
)

func ringGraph(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

var exactAlgos = []Algorithm{AlgoParallel, AlgoNOI, AlgoNOIUnbounded, AlgoHaoOrlin, AlgoStoerWagner}

func TestSolveAllAlgorithmsOnRing(t *testing.T) {
	g := ringGraph(t, 14)
	for _, a := range append(exactAlgos, AlgoKargerStein, AlgoVieCut) {
		cut := Solve(g, Options{Algorithm: a})
		if cut.Value != 2 {
			t.Errorf("%s: value = %d, want 2", a, cut.Value)
		}
		if err := verify.ValidateWitness(g, cut.Side, cut.Value); err != nil {
			t.Errorf("%s: %v", a, err)
		}
		if cut.Algorithm != a {
			t.Errorf("%s: result labeled %s", a, cut.Algorithm)
		}
	}
	// Matula is only guaranteed within 2+ε.
	m := Solve(g, Options{Algorithm: AlgoMatula, Epsilon: 0.5})
	if m.Value < 2 || m.Value > 5 {
		t.Errorf("Matula = %d, want within [2, 5]", m.Value)
	}
	if m.Exact {
		t.Error("Matula must not claim exactness")
	}
}

func TestSolveDefaultsAreParallelExact(t *testing.T) {
	g := GenerateBarabasiAlbert(400, 3, 1)
	cut := Solve(g, Options{})
	if !cut.Exact || cut.Algorithm != AlgoParallel {
		t.Error("zero Options should run the exact parallel solver")
	}
	want := Solve(g, Options{Algorithm: AlgoNOIUnbounded})
	if cut.Value != want.Value {
		t.Errorf("default solver = %d, NOI-HNSS = %d", cut.Value, want.Value)
	}
}

func TestSolveWithQueueSelection(t *testing.T) {
	g := GenerateRHG(600, 8, 5, 2)
	want := int64(-1)
	for _, q := range []QueueKind{QueueBStack, QueueBQueue, QueueHeap} {
		cut := Solve(g, Options{Algorithm: AlgoNOI, Queue: q})
		if want < 0 {
			want = cut.Value
		} else if cut.Value != want {
			t.Errorf("queue %s: %d != %d", q, cut.Value, want)
		}
	}
}

func TestGeneratorsAndKCore(t *testing.T) {
	g := GenerateRMAT(9, 8, 3)
	if g.NumVertices() != 512 {
		t.Fatalf("RMAT n = %d", g.NumVertices())
	}
	core, ids := KCoreLargestComponent(g, 4)
	if core.NumVertices() == 0 {
		t.Skip("4-core empty at this scale")
	}
	if len(ids) != core.NumVertices() {
		t.Error("ids length mismatch")
	}
	for v := 0; v < core.NumVertices(); v++ {
		if core.Degree(int32(v)) < 4 {
			t.Fatalf("vertex %d has degree %d < 4 in 4-core", v, core.Degree(int32(v)))
		}
	}
	if !core.IsConnected() {
		t.Error("largest component should be connected")
	}
	cn := CoreNumbers(g)
	if len(cn) != g.NumVertices() {
		t.Error("CoreNumbers length mismatch")
	}
}

func TestPlantedCutAPI(t *testing.T) {
	g, side := GeneratePlantedCut(30, 30, 150, 2, 5)
	if CutValue(g, side) != 2 {
		t.Errorf("planted crossing = %d, want 2", CutValue(g, side))
	}
	cut := Solve(g, Options{})
	if cut.Value > 2 {
		t.Errorf("solver found %d, planted cut is 2", cut.Value)
	}
}

func TestIORoundTripThroughAPI(t *testing.T) {
	g := GenerateGNM(40, 100, 7)
	var metis, el bytes.Buffer
	if err := WriteMETIS(&metis, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteEdgeList(&el, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadMETIS(&metis)
	if err != nil {
		t.Fatal(err)
	}
	g3, err := ReadEdgeList(&el)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || g3.NumEdges() != g.NumEdges() {
		t.Error("round trips changed edge counts")
	}
	a := Solve(g, Options{Algorithm: AlgoNOI})
	b := Solve(g2, Options{Algorithm: AlgoNOI})
	if a.Value != b.Value {
		t.Errorf("mincut changed across METIS round trip: %d vs %d", a.Value, b.Value)
	}
}

func TestAlgorithmStringAndExact(t *testing.T) {
	names := map[Algorithm]string{
		AlgoParallel: "ParCut", AlgoNOI: "NOI", AlgoNOIUnbounded: "NOI-HNSS",
		AlgoHaoOrlin: "HO", AlgoStoerWagner: "StoerWagner",
		AlgoKargerStein: "KargerStein", AlgoVieCut: "VieCut", AlgoMatula: "Matula",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d: String = %q, want %q", int(a), a.String(), want)
		}
	}
	if !AlgoHaoOrlin.Exact() || AlgoVieCut.Exact() || AlgoKargerStein.Exact() {
		t.Error("Exact flags wrong")
	}
}

func TestFlowTreeAPI(t *testing.T) {
	g := ringGraph(t, 10)
	tree := BuildFlowTree(g)
	// Every pair on a unit ring has cut value 2.
	for u := int32(0); u < 10; u++ {
		for v := u + 1; v < 10; v++ {
			if got := tree.MinCutBetween(u, v); got != 2 {
				t.Fatalf("λ(%d,%d) = %d, want 2", u, v, got)
			}
		}
	}
	val, side := tree.GlobalMinCut(g)
	if val != 2 {
		t.Fatalf("global = %d, want 2", val)
	}
	if err := verify.ValidateWitness(g, side, 2); err != nil {
		t.Fatal(err)
	}
	// Direct single-pair query.
	st, stSide := MinSTCut(g, 0, 5)
	if st != 2 {
		t.Fatalf("MinSTCut = %d, want 2", st)
	}
	if !stSide[0] || stSide[5] {
		t.Error("witness sides wrong")
	}
	// The witness is the source-minimal cut: on the unit ring both edges
	// at s are saturated, so only s itself is residual-reachable.
	for v, in := range stSide {
		if in != (v == 0) {
			t.Fatalf("MinSTCut side = %v, want {0}", stSide)
		}
	}
	// MinSTCut has no error return: bad ids panic.
	for _, st := range [][2]int32{{0, 10}, {-1, 3}, {4, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MinSTCut(%d, %d) did not panic", st[0], st[1])
				}
			}()
			MinSTCut(g, st[0], st[1])
		}()
	}
}

func TestSolveTrivialInputs(t *testing.T) {
	empty, _ := FromEdges(0, nil)
	if cut := Solve(empty, Options{}); cut.Value != 0 || cut.Side != nil {
		t.Error("empty graph should be 0/nil")
	}
	single, _ := FromEdges(1, nil)
	if cut := Solve(single, Options{}); cut.Value != 0 {
		t.Error("single vertex should be 0")
	}
}
