// Package core implements the paper's primary contribution: the
// shared-memory parallel exact minimum-cut algorithm (Algorithm 2).
//
// The solver first runs the inexact parallel VieCut algorithm to obtain a
// tight upper bound λ̂ (§3.1.1), then repeats rounds of parallel CAPFOREST
// (Algorithm 1) to mark contractible edges in a shared concurrent
// union-find, falling back to one sequential CAPFOREST scan when a round
// marks nothing (Algorithm 2 line 5), contracts the marked edges with the
// parallel contraction scheme of §3.2, and updates λ̂ from the trivial
// cuts of contracted vertices. The minimum over every cut encountered —
// VieCut's cut, scan cuts (α), and trivial degree cuts — is the exact
// minimum cut.
package core

import (
	"context"
	"math"
	"runtime"
	"time"

	"repro/internal/baseline"
	"repro/internal/capforest"
	"repro/internal/dsu"
	"repro/internal/graph"
	"repro/internal/noi"
	"repro/internal/pq"
	"repro/internal/viecut"
)

// Options configures the parallel solver.
type Options struct {
	// Workers is the number of parallel CAPFOREST/contraction workers;
	// ≤ 0 means GOMAXPROCS.
	Workers int
	// Queue selects the priority-queue implementation. The paper's
	// ParCutλ̂ variants use the bucket queues or the heap; BQueue scales
	// best on real-world graphs (§4.3).
	Queue pq.Kind
	// Bounded caps priority keys at λ̂. The paper's parallel algorithm
	// always bounds; leaving this false is supported for ablations.
	Bounded bool
	// DisableVieCut skips the initial inexact bound (ablation; Algorithm 2
	// line 1 runs VieCut).
	DisableVieCut bool
	// Seed drives all randomized choices.
	Seed uint64
}

// Result is the outcome of the parallel exact minimum-cut computation.
type Result struct {
	// Value is the weight of the minimum cut (0 for graphs with fewer
	// than two vertices or disconnected graphs).
	Value int64
	// Side is a witness cut (nil for graphs with fewer than two
	// vertices).
	Side []bool
	// VieCutValue is the bound VieCut supplied (0 when disabled).
	VieCutValue int64
	// Rounds is the number of parallel CAPFOREST + contraction rounds.
	Rounds int
	// SeqFallbacks counts rounds where the parallel scan marked no edge
	// and the sequential CAPFOREST ran (Algorithm 2 line 5).
	SeqFallbacks int
	// Stats aggregates priority-queue traffic over all scans.
	Stats capforest.Stats
	// Timing breaks the run into its phases, the data behind the
	// scalability discussion of §4.3.
	Timing PhaseTiming
}

// PhaseTiming is the wall-clock breakdown of a parallel solver run.
type PhaseTiming struct {
	VieCut   time.Duration // initial inexact bound (Algorithm 2 line 1)
	Scan     time.Duration // parallel + fallback CAPFOREST rounds
	Contract time.Duration // parallel contraction + relabeling
}

// Total returns the sum of the tracked phases.
func (p PhaseTiming) Total() time.Duration { return p.VieCut + p.Scan + p.Contract }

// ParallelMinimumCut computes the exact minimum cut of g with
// shared-memory parallelism (paper Algorithm 2). Cancellation is checked
// at every round boundary (one parallel CAPFOREST scan + contraction) and
// inside the scans themselves; on cancellation the partial Result is
// returned together with ctx.Err() and must not be treated as exact.
func ParallelMinimumCut(ctx context.Context, g *graph.Graph, opts Options) (Result, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := g.NumVertices()
	if n < 2 {
		return Result{}, ctx.Err()
	}
	// A disconnected graph has the empty cut around the component of
	// vertex 0. VieCut checks connectivity first and answers exactly that
	// with Value 0, so only the ablation without VieCut looks itself.
	if opts.DisableVieCut {
		if comp, k := g.Components(); k > 1 {
			side := make([]bool, n)
			for v, c := range comp {
				side[v] = c == 0
			}
			return Result{Value: 0, Side: side}, ctx.Err()
		}
	}

	res := Result{Value: math.MaxInt64}
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(i)
	}

	// Initial bound: trivial minimum-degree cut.
	mv, delta := g.MinDegreeVertex()
	res.Value = delta
	res.Side = make([]bool, n)
	res.Side[mv] = true

	// Algorithm 2 line 1: λ̂ ← VieCut(G).
	if !opts.DisableVieCut {
		start := time.Now()
		vc := viecut.Run(g, viecut.Options{Workers: workers, Seed: opts.Seed})
		res.Timing.VieCut = time.Since(start)
		if vc.Value == 0 {
			return Result{Value: 0, Side: vc.Side, Timing: res.Timing}, ctx.Err()
		}
		res.VieCutValue = vc.Value
		if vc.Value < res.Value {
			res.Value = vc.Value
			res.Side = vc.Side
		}
	}

	cur := g
	seed := opts.Seed
	for cur.NumVertices() > 2 {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		res.Rounds++
		seed++
		nc := cur.NumVertices()

		// Clamp the scan parallelism to the shrinking graph: tiny regions
		// per worker mostly blacklist each other's frontiers, which marks
		// fewer edges per round and inflates the round count.
		roundWorkers := workers
		if cap := nc / 1024; cap < roundWorkers {
			roundWorkers = max(1, cap)
		}

		// Algorithm 2 line 3: parallel CAPFOREST.
		scanStart := time.Now()
		u := dsu.NewConcurrent(nc)
		par := capforest.RunParallel(cur, u, res.Value, roundWorkers, capforest.Options{
			Queue:   opts.Queue,
			Bounded: opts.Bounded,
			Seed:    seed,
			Ctx:     ctx,
		})
		res.Stats.Add(par.Stats)
		if par.Bound < res.Value {
			res.Value = par.Bound
			res.Side = bestWorkerWitness(par, labels, nc)
		}
		mapping, blocks := u.Mapping()

		if blocks == nc {
			// Algorithm 2 lines 4-6: no edge marked; run the sequential
			// scan, which is guaranteed to find one on connected graphs.
			res.SeqFallbacks++
			d := dsu.New(nc)
			cf := capforest.Run(cur, d, res.Value, capforest.Options{
				Queue:   opts.Queue,
				Bounded: opts.Bounded,
				Seed:    seed,
				Ctx:     ctx,
			})
			res.Stats.Add(cf.Stats)
			if cf.Improved && cf.Bound < res.Value {
				res.Value = cf.Bound
				res.Side = materializePrefix(labels, nc, cf.Order[:cf.BestPrefixLen])
			}
			mapping, blocks = d.Mapping()
			if blocks == nc {
				// Final safety net: one Stoer–Wagner phase.
				phaseVal, last, pair := baseline.MAPhase(cur)
				if phaseVal < res.Value {
					res.Value = phaseVal
					res.Side = materializeBlock(labels, last)
				}
				m := graph.MergePairMapping(nc, pair[0], pair[1])
				mapping, blocks = m.Block, m.NumBlocks
			}
		}

		res.Timing.Scan += time.Since(scanStart)

		// Algorithm 2 line 7: parallel graph contraction.
		contractStart := time.Now()
		cur = cur.ContractParallel(graph.Mapping{Block: mapping, NumBlocks: blocks}, workers)
		for i := range labels {
			labels[i] = mapping[labels[i]]
		}
		res.Timing.Contract += time.Since(contractStart)
		if cur.NumVertices() < 2 {
			break
		}
		if v, d := cur.MinDegreeVertex(); d < res.Value {
			res.Value = d
			res.Side = materializeBlock(labels, v)
		}
	}
	return res, ctx.Err()
}

// bestWorkerWitness extracts the witness of the best α-cut found by the
// parallel scan: the scan-order prefix of the worker that achieved the
// bound.
func bestWorkerWitness(par capforest.ParallelResult, labels []int32, nc int) []bool {
	bestW := -1
	for i, wr := range par.Workers {
		if wr.BestPrefixLen > 0 && wr.BestAlpha == par.Bound {
			bestW = i
			break
		}
	}
	if bestW < 0 {
		// The bound came from elsewhere (cannot happen when par.Bound
		// improved, but stay defensive).
		return nil
	}
	wr := par.Workers[bestW]
	return materializePrefix(labels, nc, wr.Order[:wr.BestPrefixLen])
}

func materializePrefix(labels []int32, nc int, prefix []int32) []bool {
	curSide := make([]bool, nc)
	for _, v := range prefix {
		curSide[v] = true
	}
	side := make([]bool, len(labels))
	for orig, l := range labels {
		side[orig] = curSide[l]
	}
	return side
}

func materializeBlock(labels []int32, b int32) []bool {
	side := make([]bool, len(labels))
	for orig, l := range labels {
		side[orig] = l == b
	}
	return side
}

// SequentialBaseline exposes the best sequential configuration
// (NOIλ̂-Heap with a VieCut bound) for speedup measurements, mirroring the
// bottom row of the paper's Figure 5.
func SequentialBaseline(g *graph.Graph, seed uint64) noi.Result {
	vc := viecut.Run(g, viecut.Options{Workers: 1, Seed: seed})
	return noi.MinimumCut(g, noi.Options{
		Queue: pq.KindHeap, Bounded: true,
		InitialBound: vc.Value, InitialSide: vc.Side, Seed: seed,
	})
}
