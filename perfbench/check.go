package main

import (
	mincut "repro"
)

// checkMinCut verifies a minimum-cut answer on in: the value must equal
// the set-up reference λ and the witness must be a proper bipartition
// whose cut value is exactly that λ.
func checkMinCut(in *instance, value int64, side []bool) error {
	if value != in.lambda {
		return wrongf("%s: lambda %d, reference %d", in.name, value, in.lambda)
	}
	return checkWitness(in, side)
}

func checkWitness(in *instance, side []bool) error {
	n := in.g.NumVertices()
	if len(side) != n {
		return wrongf("%s: witness has %d entries for %d vertices", in.name, len(side), n)
	}
	count := 0
	for _, s := range side {
		if s {
			count++
		}
	}
	if count == 0 || count == n {
		return wrongf("%s: witness side is empty or everything", in.name)
	}
	if cv := mincut.CutValue(in.g, side); cv != in.lambda {
		return wrongf("%s: witness cut value %d, reference lambda %d", in.name, cv, in.lambda)
	}
	return nil
}

// checkAllCuts verifies an all-minimum-cuts answer: λ and the cut count
// must equal the references, and the first cut the cactus yields must
// have value λ.
func checkAllCuts(in *instance, res *mincut.AllCuts) error {
	if !res.Connected || res.Lambda != in.lambda {
		return wrongf("%s: all-cuts lambda %d (connected=%v), reference %d", in.name, res.Lambda, res.Connected, in.lambda)
	}
	if err := checkCount(in, res.NumCuts()); err != nil {
		return err
	}
	var side []bool
	res.Cactus.EachMinCut(func(s []bool) bool {
		side = append([]bool(nil), s...)
		return false
	})
	return checkWitness(in, side)
}

// checkCount compares a minimum-cut count with the reference.
func checkCount(in *instance, cuts int) error {
	if cuts != in.cuts {
		return wrongf("%s: %d minimum cuts, reference %d", in.name, cuts, in.cuts)
	}
	return nil
}

// checkCutValue compares an evaluated cut with its reference value.
func checkCutValue(name string, got, want int64) error {
	if got != want {
		return wrongf("%s: cut value %d, reference %d", name, got, want)
	}
	return nil
}

// checkApply verifies a delete-then-reinsert batch: the new snapshot is
// the next epoch of the same graph, and a carried λ is the reference.
func checkApply(in *instance, batch []mincut.Mutation, old, next *mincut.Snapshot, reused mincut.Reused) error {
	g, h := old.Graph(), next.Graph()
	for _, m := range batch {
		if w := g.EdgeWeight(m.U, m.V); h.EdgeWeight(m.U, m.V) != w {
			return wrongf("%s: edge (%d,%d) has weight %d after apply, %d before", in.name, m.U, m.V, h.EdgeWeight(m.U, m.V), w)
		}
	}
	if next.Epoch() != old.Epoch()+1 {
		return wrongf("%s: apply produced epoch %d after %d", in.name, next.Epoch(), old.Epoch())
	}
	if h.NumVertices() != g.NumVertices() || h.NumEdges() != g.NumEdges() || h.TotalWeight() != g.TotalWeight() {
		return wrongf("%s: delete+reinsert changed the graph (m %d→%d, W %d→%d)", in.name,
			g.NumEdges(), h.NumEdges(), g.TotalWeight(), h.TotalWeight())
	}
	if reused.Lambda {
		if cut, ok := next.LambdaCached(); !ok || cut.Value != in.lambda {
			return wrongf("%s: apply carried lambda %d, reference %d", in.name, cut.Value, in.lambda)
		}
	}
	return nil
}
