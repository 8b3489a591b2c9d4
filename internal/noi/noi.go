// Package noi implements the exact minimum-cut algorithm of Nagamochi,
// Ono and Ibaraki as engineered by the paper (§3.1): repeated CAPFOREST
// scans mark contractible edges, the graph is contracted, and the upper
// bound λ̂ shrinks through scan cuts (α), trivial degree cuts of
// contracted vertices, and optionally a precomputed inexact bound
// (VieCut). Priority-queue selection and bounding reproduce the paper's
// NOI-HNSS and NOIλ̂ variants.
//
// The round loop is also the paper's ParCut (Algorithm 2): internal/core
// takes the VieCut bound and calls MinimumCut with several workers, and
// every round large enough to split among them runs the parallel
// CAPFOREST (Algorithm 1) instead of the sequential scan. With one
// worker, Algorithm 1 is the sequential CAPFOREST, so ParCut at p=1 and
// NOIλ̂ seeded with the same bound are the same computation.
package noi

import (
	"context"
	"time"

	"repro/internal/baseline"
	"repro/internal/capforest"
	"repro/internal/dsu"
	"repro/internal/graph"
	"repro/internal/pq"
)

// Options configures MinimumCut.
type Options struct {
	// Queue selects the priority-queue implementation (§3.1.3). The
	// bucket queues require Bounded.
	Queue pq.Kind
	// Bounded caps priority keys at λ̂ (the paper's NOIλ̂ variants).
	Bounded bool
	// InitialBound, when positive, seeds λ̂ with a known upper bound —
	// the result of VieCut in the paper's NOI-...-VieCut variants. It
	// must be a genuine cut value of g (or at least an upper bound on
	// one); InitialSide should carry its witness.
	InitialBound int64
	// InitialSide is the witness cut for InitialBound (optional). The
	// result's Side may alias it.
	InitialSide []bool
	// Seed drives start-vertex selection.
	Seed uint64
	// Workers is the number of CAPFOREST and contraction workers; ≤ 1
	// runs everything on the calling goroutine. A round scans in parallel
	// only when the graph has at least 1024 vertices per worker.
	Workers int
	// Ctx, when non-nil, is polled at every round boundary and inside the
	// scans. On cancellation MinimumCut returns its partial result, which
	// must not be treated as exact.
	Ctx context.Context
}

// Result is the outcome of an exact minimum-cut computation.
type Result struct {
	// Value is the weight of the minimum cut. 0 for graphs with fewer
	// than two vertices and for disconnected graphs.
	Value int64
	// Side is a witness: Side[v] is true for vertices on one side of a
	// minimum cut. It is nil for graphs with fewer than two vertices, and
	// may be nil if InitialBound was supplied without InitialSide and no
	// better cut exists.
	Side []bool
	// Rounds is the number of CAPFOREST+contract iterations.
	Rounds int
	// SeqFallbacks counts multi-worker rounds whose parallel scan marked
	// no edge, so the sequential scan ran (Algorithm 2 line 5). Rounds
	// scanned by one worker never count.
	SeqFallbacks int
	// Fallbacks counts rounds rescued by a Stoer–Wagner phase (a CAPFOREST
	// scan that marked no edge, which the theory precludes for connected
	// graphs but the implementation guards anyway).
	Fallbacks int
	// Stats aggregates priority-queue traffic across all rounds.
	Stats capforest.Stats
	// Scan and Contract are the wall-clock time spent in the CAPFOREST
	// scans (fallbacks included) and in contraction and relabeling.
	Scan, Contract time.Duration
}

// MinimumCut computes the exact minimum cut of g. A disconnected graph
// has a zero cut, and only a disconnected graph does; the loop stops at
// the first one it finds and answers with the component of vertex 0, so
// connected graphs pay for no connectivity check.
func MinimumCut(g *graph.Graph, opts Options) Result {
	n := g.NumVertices()
	if n < 2 {
		return Result{}
	}
	workers := max(opts.Workers, 1)

	// Initial bound: the minimum-degree trivial cut, improved by the
	// caller-supplied bound if any.
	mv, delta := g.MinDegreeVertex()
	res := Result{Value: delta, Side: make([]bool, n)}
	res.Side[mv] = true
	if opts.InitialBound > 0 && opts.InitialBound < res.Value {
		res.Value, res.Side = opts.InitialBound, opts.InitialSide
	}

	labels := graph.IdentityLabels(n) // original vertex -> current contracted vertex
	cur := g
	cf := capforest.Options{Queue: opts.Queue, Bounded: opts.Bounded, Seed: opts.Seed, Ctx: opts.Ctx}
	for cur.NumVertices() > 2 && res.Value > 0 {
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			break
		}
		res.Rounds++
		cf.Seed++
		nc := cur.NumVertices()

		scanStart := time.Now()
		mapping, blocks := res.scan(cur, labels, min(workers, nc/1024), cf)
		res.Scan += time.Since(scanStart)
		if res.Value == 0 {
			break
		}

		contractStart := time.Now()
		cur = cur.ContractParallel(graph.Mapping{Block: mapping, NumBlocks: blocks}, workers)
		graph.ComposeLabels(labels, mapping)
		res.Contract += time.Since(contractStart)
		if cur.NumVertices() < 2 {
			// Everything was certified ≥ λ̂ and merged; the best cut seen
			// so far is the minimum cut.
			break
		}
		if v, d := cur.MinDegreeVertex(); d < res.Value {
			res.Value = d
			res.Side = graph.LiftBlock(labels, v)
		}
	}
	if res.Value == 0 {
		comp, _ := g.Components()
		res.Side = graph.LiftBlock(comp, comp[0])
	}
	return res
}

// scan runs one round's CAPFOREST on cur, lowering the bound through its
// α-cuts, and returns the mapping that contracts the marked edges. A
// round with more than one worker runs the parallel scan (Algorithm 1);
// when that marks nothing, or with one worker, the sequential scan runs,
// which marks an edge on every connected graph. One Stoer–Wagner phase
// is the final safety net, so the mapping shrinks cur unless a zero cut
// was found.
func (res *Result) scan(cur *graph.Graph, labels []int32, workers int, opts capforest.Options) ([]int32, int) {
	nc := cur.NumVertices()
	if workers > 1 {
		u := dsu.NewConcurrent(nc)
		par := capforest.RunParallel(cur, u, res.Value, workers, opts)
		res.Stats.Add(par.Stats)
		if par.Bound < res.Value {
			// The witness is the scan-order prefix of the worker whose α
			// set the bound.
			res.Value, res.Side = par.Bound, nil
			for _, wr := range par.Workers {
				if wr.BestPrefixLen > 0 && wr.BestAlpha == par.Bound {
					res.Side = graph.LiftSet(labels, nc, wr.Order[:wr.BestPrefixLen])
					break
				}
			}
		}
		if mapping, blocks := u.Mapping(); blocks < nc || res.Value == 0 {
			return mapping, blocks
		}
		res.SeqFallbacks++
	}

	d := dsu.New(nc)
	seq := capforest.Run(cur, d, res.Value, opts)
	res.Stats.Add(seq.Stats)
	if seq.Improved {
		res.Value = seq.Bound
		res.Side = graph.LiftSet(labels, nc, seq.Order[:seq.BestPrefixLen])
	}
	if mapping, blocks := d.Mapping(); blocks < nc || res.Value == 0 {
		return mapping, blocks
	}

	res.Fallbacks++
	phaseVal, last, pair := baseline.MAPhase(cur)
	if phaseVal < res.Value {
		res.Value = phaseVal
		res.Side = graph.LiftBlock(labels, last)
	}
	m := graph.MergePairMapping(nc, pair[0], pair[1])
	return m.Block, m.NumBlocks
}
