package main

import (
	"context"
	"errors"
	"testing"

	mincut "repro"
	"repro/internal/gen"
)

func ringInstance(t *testing.T, n int) *instance {
	t.Helper()
	return &instance{name: "ring", g: gen.Ring(n), lambda: 2, cuts: ringCuts(n)}
}

func isWrong(err error) bool {
	var w *wrongAnswer
	return errors.As(err, &w)
}

func TestCheckerAcceptsCorrectAnswers(t *testing.T) {
	in := ringInstance(t, 12)
	cut := mincut.Solve(in.g, mincut.Options{})
	if err := checkMinCut(in, cut.Value, cut.Side); err != nil {
		t.Fatalf("correct min cut rejected: %v", err)
	}
	res, err := mincut.AllMinCuts(in.g, mincut.AllCutsOptions{NoMaterialize: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAllCuts(in, res); err != nil {
		t.Fatalf("correct all-cuts answer rejected: %v", err)
	}
	if err := checkCutValue("q", 5, 5); err != nil {
		t.Fatalf("correct cut value rejected: %v", err)
	}
}

func TestCheckerRejectsCorruptedLambda(t *testing.T) {
	in := ringInstance(t, 12)
	cut := mincut.Solve(in.g, mincut.Options{})
	if err := checkMinCut(in, cut.Value+1, cut.Side); !isWrong(err) {
		t.Errorf("lambda+1 accepted: %v", err)
	}
	res, err := mincut.AllMinCuts(in.g, mincut.AllCutsOptions{NoMaterialize: true})
	if err != nil {
		t.Fatal(err)
	}
	res.Lambda--
	if err := checkAllCuts(in, res); !isWrong(err) {
		t.Errorf("all-cuts lambda-1 accepted: %v", err)
	}
}

func TestCheckerRejectsCorruptedCount(t *testing.T) {
	in := ringInstance(t, 12)
	res, err := mincut.AllMinCuts(in.g, mincut.AllCutsOptions{NoMaterialize: true})
	if err != nil {
		t.Fatal(err)
	}
	res.Count++
	if err := checkAllCuts(in, res); !isWrong(err) {
		t.Errorf("count+1 accepted: %v", err)
	}
	if err := checkCount(in, ringCuts(12)-1); !isWrong(err) {
		t.Errorf("count-1 accepted: %v", err)
	}
}

func TestCheckerRejectsCorruptedCutValue(t *testing.T) {
	in := ringInstance(t, 12)
	cut := mincut.Solve(in.g, mincut.Options{})
	// Moving one vertex across a ring cut changes its value: the witness
	// no longer realises lambda.
	side := append([]bool(nil), cut.Side...)
	for v := range side {
		if !side[v] {
			side[v] = true
			if mincut.CutValue(in.g, side) != in.lambda {
				break
			}
			side[v] = false
		}
	}
	if err := checkMinCut(in, cut.Value, side); !isWrong(err) {
		t.Errorf("witness of wrong value accepted: %v", err)
	}
	if err := checkMinCut(in, cut.Value, make([]bool, in.g.NumVertices())); !isWrong(err) {
		t.Errorf("empty side accepted: %v", err)
	}
	if err := checkCutValue("q", 4, 5); !isWrong(err) {
		t.Errorf("cut value 4 accepted for reference 5: %v", err)
	}
}

func TestCheckApplyRejectsChangedGraph(t *testing.T) {
	in := ringInstance(t, 12)
	snap := mincut.NewSnapshot(in.g, mincut.SnapshotOptions{})
	if _, err := snap.MinCut(context.Background()); err != nil {
		t.Fatal(err)
	}
	batch := replaceBatches(seededEdges(in.g, 1, 3))[0]
	next, reused, err := snap.Apply(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkApply(in, batch, snap, next, reused); err != nil {
		t.Fatalf("delete+reinsert rejected: %v", err)
	}
	// Dropping the reinsert changes the graph.
	changed, reused, err := snap.Apply(context.Background(), batch[:1])
	if err != nil {
		t.Fatal(err)
	}
	if err := checkApply(in, batch, snap, changed, reused); !isWrong(err) {
		t.Errorf("apply that deleted an edge accepted: %v", err)
	}
}
