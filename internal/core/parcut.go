// Package core implements the paper's primary contribution: the
// shared-memory parallel exact minimum-cut algorithm ParCut (Algorithm 2),
// and the fixed-threshold contractions that the all-cuts pipeline and
// Snapshot.Apply build on it.
//
// ParCut is the VieCut bound plus NOI's rounds run with the parallel
// CAPFOREST. It first runs the inexact parallel VieCut algorithm to
// obtain a tight upper bound λ̂ (§3.1.1), then hands that bound to
// noi.MinimumCut, the one CAPFOREST-and-contract loop: each round large
// enough for several workers marks contractible edges with the parallel
// CAPFOREST (Algorithm 1) in a shared concurrent union-find, falls back
// to one sequential CAPFOREST scan when that marks nothing (Algorithm 2
// line 5), contracts the marked edges with the block-owned parallel
// contraction, and updates λ̂ from the trivial cuts of contracted
// vertices. Smaller rounds, and every round at one worker, run the
// sequential CAPFOREST, which is Algorithm 1 with one worker. The
// minimum over every cut encountered — VieCut's cut, scan cuts (α), and
// trivial degree cuts — is the exact minimum cut.
package core

import (
	"context"
	"runtime"
	"time"

	"repro/internal/capforest"
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
	// Rounds is the number of CAPFOREST + contraction rounds.
	Rounds int
	// SeqFallbacks counts multi-worker rounds where the parallel scan
	// marked no edge and the sequential CAPFOREST ran (Algorithm 2 line
	// 5). Rounds scanned by one worker never count.
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
// shared-memory parallelism (paper Algorithm 2): the VieCut bound, then
// NOI's rounds (noi.MinimumCut) with the parallel CAPFOREST and the
// parallel contraction. Cancellation is checked at every round boundary
// and inside the scans; on cancellation the partial Result is returned
// together with ctx.Err() and must not be treated as exact.
func ParallelMinimumCut(ctx context.Context, g *graph.Graph, opts Options) (Result, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var res Result
	nopts := noi.Options{Queue: opts.Queue, Bounded: opts.Bounded, Seed: opts.Seed, Workers: workers, Ctx: ctx}

	// Algorithm 2 line 1: λ̂ ← VieCut(G). VieCut checks connectivity and
	// answers a disconnected graph exactly, with Value 0 and the
	// component of vertex 0, as noi.MinimumCut does without it.
	if !opts.DisableVieCut {
		start := time.Now()
		vc := viecut.Run(g, viecut.Options{Workers: workers, Seed: opts.Seed})
		res.Timing.VieCut = time.Since(start)
		if vc.Value == 0 {
			return Result{Value: 0, Side: vc.Side, Timing: res.Timing}, ctx.Err()
		}
		res.VieCutValue = vc.Value
		nopts.InitialBound, nopts.InitialSide = vc.Value, vc.Side
	}

	r := noi.MinimumCut(g, nopts)
	res.Value, res.Side = r.Value, r.Side
	res.Rounds, res.SeqFallbacks, res.Stats = r.Rounds, r.SeqFallbacks, r.Stats
	res.Timing.Scan, res.Timing.Contract = r.Scan, r.Contract
	return res, ctx.Err()
}
