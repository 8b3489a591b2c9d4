package core

import (
	"context"
	"runtime"

	"repro/internal/capforest"
	"repro/internal/dsu"
	"repro/internal/graph"
	"repro/internal/pq"
)

// Kernel is a contracted graph that preserves every minimum cut of the
// original, together with the vertex mapping. It is the plumbing between
// the value solver and the all-minimum-cuts subsystem (internal/cactus):
// the solver proper contracts any edge certified ≥ λ̂, which preserves the
// minimum value but may destroy witnesses, while the kernelization below
// only contracts edges certified strictly above λ, so the minimum cuts of
// the kernel are in exact bijection with the minimum cuts of the input.
type Kernel struct {
	// Graph is the contracted graph.
	Graph *graph.Graph
	// Labels maps every original vertex to its kernel vertex.
	Labels []int32
	// Lambda is the minimum-cut value both graphs share.
	Lambda int64
	// Rounds is the number of CAPFOREST + contraction rounds run.
	Rounds int
}

// KernelizeAllCuts contracts g while preserving every minimum cut. lambda
// must be the exact minimum-cut value of g (> 0, so g must be connected).
// Each round runs CAPFOREST with the fixed threshold λ+1 — certifying
// connectivity λ(x,y) ≥ λ+1 for every marked edge, hence that no minimum
// cut separates x and y — unions the certified pairs in a (concurrent)
// disjoint-set structure, and contracts with the parallel block-owned
// gather (graph.ContractParallel). Rounds repeat until a fixpoint.
// workers ≤ 0 means GOMAXPROCS.
// Cancellation is checked at round boundaries; the partial kernel is
// returned with ctx.Err() and is still all-cuts-preserving (every
// completed contraction was individually certified), just less contracted.
func KernelizeAllCuts(ctx context.Context, g *graph.Graph, lambda int64, workers int, seed uint64) (Kernel, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := g.NumVertices()
	k := Kernel{Graph: g, Labels: graph.IdentityLabels(n), Lambda: lambda}
	if n < 3 || lambda <= 0 {
		return k, ctx.Err()
	}
	for k.Graph.NumVertices() > 2 {
		if err := ctx.Err(); err != nil {
			return k, err
		}
		k.Rounds++
		seed++
		mapping, blocks := fixedThresholdRound(ctx, k.Graph, lambda+1, workers, seed)
		if blocks == k.Graph.NumVertices() {
			break // fixpoint: no edge certified above λ
		}
		k.Graph = k.Graph.ContractParallel(graph.Mapping{Block: mapping, NumBlocks: blocks}, workers)
		graph.ComposeLabels(k.Labels, mapping)
	}
	return k, ctx.Err()
}

// CertifyConnectivity attempts to certify that the local edge
// connectivity λ(g, u, v) is at least threshold, without computing a max
// flow: rounds of fixed-threshold CAPFOREST union pairs whose
// connectivity is certified ≥ threshold (Nagamochi–Ono–Ibaraki Lemma 3.1;
// certificates compose transitively through the union-find), certified
// blocks are contracted, and the rounds repeat until u and v land in the
// same block (certified — return true) or a fixpoint is reached
// (inconclusive — return false; the connectivity may still be ≥
// threshold, CAPFOREST certificates are one-sided). This is the
// invalidation oracle behind Snapshot.Apply's deletion rule: deleting an
// edge {u,v} of weight w from a graph with minimum cut λ provably
// preserves the entire minimum-cut family when λ(u,v) ≥ λ+w+1, because
// every cut separating u and v then stays strictly above λ after losing
// w.
//
// workers ≤ 0 means GOMAXPROCS; only graphs large enough to amortize the
// parallel scan use more than one. Cancellation is checked per round and
// reported as (false, ctx.Err()).
func CertifyConnectivity(ctx context.Context, g *graph.Graph, u, v int32, threshold int64, workers int, seed uint64) (bool, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := g.NumVertices()
	if u == v {
		return true, ctx.Err()
	}
	if n < 2 || threshold <= 0 {
		return threshold <= 0, ctx.Err()
	}
	cur := g
	cu, cv := u, v // the pair's images in the contracted graph
	for cur.NumVertices() >= 2 {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		seed++
		mapping, blocks := fixedThresholdRound(ctx, cur, threshold, workers, seed)
		if mapping[cu] == mapping[cv] {
			return true, nil
		}
		if blocks == cur.NumVertices() {
			return false, nil // fixpoint: inconclusive
		}
		cur = cur.ContractParallel(graph.Mapping{Block: mapping, NumBlocks: blocks}, workers)
		cu, cv = mapping[cu], mapping[cv]
	}
	return false, ctx.Err()
}

// fixedThresholdRound runs one CAPFOREST scan of g with the fixed
// threshold, unioning every pair it certifies to have connectivity ≥
// threshold, and returns the mapping onto the certified blocks. Graphs
// of at least 1024 vertices are scanned by the parallel CAPFOREST when
// workers > 1, smaller ones by the sequential scan.
func fixedThresholdRound(ctx context.Context, g *graph.Graph, threshold int64, workers int, seed uint64) ([]int32, int) {
	opts := capforest.Options{Queue: pq.KindBQueue, Bounded: true, FixedThreshold: threshold, Seed: seed, Ctx: ctx}
	nc := g.NumVertices()
	if workers > 1 && nc >= 1<<10 {
		u := dsu.NewConcurrent(nc)
		capforest.RunParallel(g, u, threshold, workers, opts)
		return u.Mapping()
	}
	d := dsu.New(nc)
	capforest.Run(g, d, threshold, opts)
	return d.Mapping()
}
