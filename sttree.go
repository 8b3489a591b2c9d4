package mincut

import (
	"context"

	"repro/internal/flow"
)

// FlowTree answers minimum s-t cut *value* queries for every vertex pair
// after n-1 max-flow computations (a Gomory–Hu flow-equivalent tree in
// Gusfield's contraction-free construction). The global minimum cut is
// the lightest tree edge.
type FlowTree = flow.FlowTree

// BuildFlowTree constructs the flow-equivalent tree of g.
func BuildFlowTree(g *Graph) *FlowTree { return flow.GusfieldTree(g) }

// MinSTCut returns the minimum cut value separating s and t and a witness
// side containing s, computed with Dinic's max flow. The witness is the
// source-minimal minimum cut: exactly the vertices residual-reachable
// from s, the same side Snapshot.STMinCut returns. MinSTCut panics if s
// or t is out of range or s == t; Snapshot.STMinCut returns an error
// instead.
func MinSTCut(g *Graph, s, t int32) (int64, []bool) {
	val, side, err := flow.STMinCutCtx(context.Background(), g, s, t)
	if err != nil {
		panic(err)
	}
	return val, side
}
