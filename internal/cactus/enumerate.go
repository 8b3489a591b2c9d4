package cactus

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/pq"
)

// DefaultMaxCuts caps the number of enumerated minimum cuts; the theory
// bounds them by n(n-1)/2, so the cap only guards degenerate inputs and
// memory (each cut is materialized).
const DefaultMaxCuts = 1 << 20

// ErrTooManyCuts is wrapped by AllMinCuts when the number of minimum cuts
// exceeds Options.MaxCuts. It is the only benign error: everything else
// signals an internal inconsistency.
var ErrTooManyCuts = errors.New("too many minimum cuts")

// Strategy selects how the kernel's minimum cuts are enumerated.
type Strategy int

const (
	// StrategyAuto picks the default strategy (currently StrategyKT).
	StrategyAuto Strategy = iota
	// StrategyKT is the Karzanov–Timofeev recursion: λ-capped
	// augmentation per kernel vertex against a shared residual network,
	// per-step chains, no deduplication. O(n·m)-flavored; the default.
	// The steps shard across Options.Workers, each worker walking a
	// contiguous segment of the adjacency order on its own residual
	// network with the segment's prefix pre-absorbed; the cut list is
	// identical for every worker count.
	StrategyKT
	// StrategyQuadratic is the reference implementation kept for
	// differential testing: one full Picard–Queyranne enumeration (and one
	// from-scratch max flow) per kernel vertex, fanned out over workers,
	// deduplicated through a shared hash set. Each cut is rediscovered
	// once per far-side vertex, hence the name.
	StrategyQuadratic
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "Auto"
	case StrategyKT:
		return "KT"
	case StrategyQuadratic:
		return "Quadratic"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Options configures AllMinCuts.
type Options struct {
	// Workers bounds the parallelism of the kernelization and of the cut
	// enumeration (≤ 0 means GOMAXPROCS): the KT strategy shards the
	// adjacency-order steps into contiguous segments, one
	// flow.Progressive per worker, and StrategyQuadratic fans its
	// per-target enumerations out over workers. Results are identical
	// for every worker count.
	Workers int
	// Seed drives the randomized choices of the λ solver and CAPFOREST.
	Seed uint64
	// Lambda, when positive, is trusted as the exact minimum-cut value and
	// the λ computation is skipped. Passing a wrong value yields wrong
	// results (a too-small value finds nothing; a too-large one is not a
	// minimum-cut family and fails cactus construction).
	Lambda int64
	// MaxCuts caps the number of cuts (≤ 0 means DefaultMaxCuts).
	// Exceeding it aborts with an error.
	MaxCuts int
	// Strategy selects the enumeration algorithm (StrategyAuto = KT).
	Strategy Strategy
	// DisableKernel skips the all-cuts-preserving kernelization (ablation;
	// the enumeration then runs on the full graph).
	DisableKernel bool
	// NoMaterialize skips building Result.Cuts, the per-cut boolean sides
	// over original vertices — Θ(C·n) bytes for C cuts. The cactus is
	// still built; stream the cuts from it with Cactus.EachMinCut.
	NoMaterialize bool
}

// PhaseTimings is the wall-clock breakdown of one AllMinCuts call, for
// benchmarking and capacity planning. Zero fields mean the phase did
// not run (e.g. Lambda when Options.Lambda was supplied, Kernelize when
// Options.DisableKernel is set).
type PhaseTimings struct {
	// Lambda is the λ solve (core.ParallelMinimumCut).
	Lambda time.Duration
	// Kernelize is the all-cuts-preserving contraction.
	Kernelize time.Duration
	// Enumerate is the cut enumeration (sharded KT or quadratic).
	Enumerate time.Duration
	// Assemble covers everything after enumeration: the canonical sort,
	// cactus construction, the lift to original vertices, and cut
	// materialization.
	Assemble time.Duration
}

// Result is the outcome of an all-minimum-cuts computation.
type Result struct {
	// Lambda is the minimum-cut value (0 for disconnected graphs and
	// graphs with fewer than two vertices).
	Lambda int64
	// Connected reports whether g was connected. When false, every
	// bipartition grouping whole components is a minimum cut of weight 0 —
	// exponentially many — so Count stays 0 and Cuts and Cactus are not
	// materialized; Components carries the component count.
	Connected bool
	// Components is the number of connected components.
	Components int
	// Count is the number of distinct minimum cuts (0 for disconnected
	// graphs and graphs with fewer than two vertices).
	Count int
	// Cuts lists every minimum cut in canonical form (vertex 0 on the
	// false side), sorted by side size then lexicographically. Nil for
	// disconnected graphs, graphs with fewer than two vertices, and when
	// Options.NoMaterialize is set (stream from Cactus instead).
	Cuts [][]bool
	// Cactus is the cactus representation of the minimum cuts (nil for
	// disconnected graphs).
	Cactus *Cactus
	// KernelVertices is the vertex count of the contracted kernel the
	// enumeration ran on (equal to n when kernelization is disabled).
	KernelVertices int
	// Strategy is the enumeration strategy that ran (never StrategyAuto).
	Strategy Strategy
	// Phases is the wall-clock breakdown by pipeline phase.
	Phases PhaseTimings
}

// NumCuts returns the number of distinct minimum cuts (0 means none were
// found: fewer than two vertices, or a disconnected graph).
func (r *Result) NumCuts() int { return r.Count }

// AllMinCuts computes every global minimum cut of g and the cactus
// representation. See the package comment for the pipeline. Cancellation
// is checked at every phase boundary — λ solver rounds, kernelization
// rounds, each KT step (respectively each quadratic target), and cactus
// assembly — and reported as ctx.Err() wrapped in the returned error.
func AllMinCuts(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	n := g.NumVertices()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	maxCuts := opts.MaxCuts
	if maxCuts <= 0 {
		maxCuts = DefaultMaxCuts
	}
	strategy := opts.Strategy
	if strategy == StrategyAuto {
		strategy = StrategyKT
	}

	res := &Result{Connected: true, Components: 1, Strategy: strategy}
	if n < 2 {
		res.Components = n
		res.Cactus = &Cactus{NumNodes: 1, VertexNode: make([]int32, n)}
		if n == 0 {
			res.Components = 0
			res.Cactus.NumNodes = 0
			res.Cactus.VertexNode = nil
		}
		return res, nil
	}
	if _, k := g.Components(); k > 1 {
		res.Connected = false
		res.Components = k
		return res, nil
	}

	// λ from the existing parallel exact solver, unless supplied.
	lambda := opts.Lambda
	if lambda <= 0 {
		start := time.Now()
		solve, err := core.ParallelMinimumCut(ctx, g, core.Options{
			Workers: opts.Workers, Queue: pq.KindBQueue, Bounded: true, Seed: seed,
		})
		if err != nil {
			return nil, fmt.Errorf("cactus: λ solve interrupted: %w", err)
		}
		lambda = solve.Value
		res.Phases.Lambda = time.Since(start)
	}
	res.Lambda = lambda

	// Kernelize: contract everything no minimum cut separates.
	kg, labels := g, graph.IdentityLabels(n)
	if !opts.DisableKernel {
		start := time.Now()
		k, err := core.KernelizeAllCuts(ctx, g, lambda, opts.Workers, seed)
		if err != nil {
			return nil, fmt.Errorf("cactus: kernelization interrupted: %w", err)
		}
		kg, labels = k.Graph, k.Labels
		res.Phases.Kernelize = time.Since(start)
	}
	nk := kg.NumVertices()
	res.KernelVertices = nk
	k0 := labels[0]

	// Enumerate the kernel's minimum cuts as canonical bitsets (the side
	// not containing k0).
	var (
		kcuts []bitset
		err   error
	)
	start := time.Now()
	switch strategy {
	case StrategyKT:
		kcuts, err = ktEnumerate(ctx, kg, k0, lambda, maxCuts, workers)
	case StrategyQuadratic:
		kcuts, err = enumerateQuadratic(ctx, kg, k0, lambda, workers, maxCuts)
	default:
		return nil, fmt.Errorf("cactus: unknown strategy %d", int(strategy))
	}
	if err != nil {
		return nil, err
	}
	res.Phases.Enumerate = time.Since(start)
	res.Count = len(kcuts)

	// Canonical kernel order (side size, then lexicographic) so the
	// cactus is deterministic and identical across strategies and
	// materialization settings. The size key is a counting sort (sizes
	// are bounded by nk); only the per-size buckets need comparison
	// sorting, which keeps every comparison single-key and lets the
	// buckets sort across the workers.
	start = time.Now()
	sizes := make([]int, len(kcuts))
	maxSize := 0
	for i, m := range kcuts {
		sizes[i] = m.count()
		if sizes[i] > maxSize {
			maxSize = sizes[i]
		}
	}
	offs := make([]int32, maxSize+2)
	for _, s := range sizes {
		offs[s+1]++
	}
	for s := 1; s < len(offs); s++ {
		offs[s] += offs[s-1]
	}
	bounds := append([]int32(nil), offs...) // bucket s occupies perm[bounds[s]:bounds[s+1]]
	perm := make([]int32, len(kcuts))
	for i, s := range sizes {
		perm[offs[s]] = int32(i)
		offs[s]++
	}
	parallelBlocks(workers, maxSize+1, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			b := perm[bounds[s]:bounds[s+1]]
			if len(b) < 2 {
				continue
			}
			sort.Slice(b, func(x, y int) bool {
				i, j := b[x], b[y]
				for w := len(kcuts[i]) - 1; w >= 0; w-- {
					if kcuts[i][w] != kcuts[j][w] {
						return kcuts[i][w] < kcuts[j][w]
					}
				}
				return false
			})
		}
	})
	sorted := make([]bitset, len(kcuts))
	for a, i := range perm {
		sorted[a] = kcuts[i]
	}
	kcuts = sorted

	// Cactus over the kernel, lifted to original vertices. The assembly
	// itself is worker-parallel (sharded bit-matrix transposes,
	// per-crossing-class fan-out) with output identical for every
	// worker count.
	kc, err := buildCactus(nk, k0, kcuts, lambda, workers)
	if err != nil {
		return nil, err
	}
	vertexNode := make([]int32, n)
	for v := 0; v < n; v++ {
		vertexNode[v] = kc.VertexNode[labels[v]]
	}
	kc.VertexNode = vertexNode
	res.Cactus = kc

	if !opts.NoMaterialize {
		res.Cuts = materialize(kcuts, labels, n)
	}
	res.Phases.Assemble = time.Since(start)
	return res, nil
}

// enumerateQuadratic is the reference enumeration kept for differential
// testing against the KT recursion: every minimum cut separates k0 from
// some kernel vertex v and is then a minimum k0-v cut of value λ, so one
// Picard–Queyranne enumeration per target, fanned out over workers, finds
// them all; each cut is found once per far-side vertex and deduplicated
// in a shared canonical-mask set. Cost is one from-scratch max flow per
// kernel vertex plus O(Σ|side|) = O(C·n) rediscoveries.
func enumerateQuadratic(ctx context.Context, kg *graph.Graph, k0 int32, lambda int64, workers, maxCuts int) ([]bitset, error) {
	nk := kg.NumVertices()
	var (
		mu       sync.Mutex
		cutSet   = map[string]bitset{}
		overflow bool
	)
	collect := func(sSide []bool) bool {
		// Canonical kernel side: the non-k0 side.
		mask := newBitset(nk)
		for v, in := range sSide {
			if !in {
				mask.set(v)
			}
		}
		key := mask.key()
		mu.Lock()
		defer mu.Unlock()
		if _, ok := cutSet[key]; !ok {
			if len(cutSet) >= maxCuts {
				overflow = true
				return false
			}
			cutSet[key] = mask
		}
		return !overflow
	}

	targets := make(chan int32, nk)
	for v := int32(0); v < int32(nk); v++ {
		if v != k0 {
			targets <- v
		}
	}
	close(targets)
	if workers > nk-1 {
		workers = nk - 1
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range targets {
				if ctx.Err() != nil {
					return // cancellation checked per target (phase boundary)
				}
				mu.Lock()
				done := overflow
				mu.Unlock()
				if done {
					return
				}
				e := flow.NewSTEnum(kg, k0, v)
				if e.Value() == lambda {
					e.Enumerate(collect)
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cactus: quadratic enumeration interrupted: %w", err)
	}
	if overflow {
		return nil, fmt.Errorf("cactus: more than %d minimum cuts; raise Options.MaxCuts: %w", maxCuts, ErrTooManyCuts)
	}
	kcuts := make([]bitset, 0, len(cutSet))
	for _, m := range cutSet {
		kcuts = append(kcuts, m)
	}
	return kcuts, nil
}

// materialize expands kernel cut bitsets to boolean sides over original
// vertices, sorted deterministically (by side size, then
// lexicographically) — canonical regardless of strategy and of how far
// the kernelization contracted.
func materialize(kcuts []bitset, labels []int32, n int) [][]bool {
	cuts := make([][]bool, len(kcuts))
	sizes := make([]int, len(kcuts))
	for i, m := range kcuts {
		side := make([]bool, n)
		size := 0
		for v := 0; v < n; v++ {
			side[v] = m.get(int(labels[v]))
			if side[v] {
				size++
			}
		}
		cuts[i] = side
		sizes[i] = size
	}
	order := make([]int, len(kcuts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if sizes[i] != sizes[j] {
			return sizes[i] < sizes[j]
		}
		for v := 0; v < n; v++ {
			if cuts[i][v] != cuts[j][v] {
				return cuts[j][v]
			}
		}
		return false
	})
	sorted := make([][]bool, len(order))
	for a, i := range order {
		sorted[a] = cuts[i]
	}
	return sorted
}
