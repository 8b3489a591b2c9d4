package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	mincut "repro"
	"repro/internal/gen"
)

// Set-up runs at least minSetupReps times and until setupBudget has
// passed (at most maxSetupReps); setup_s is the median.
const (
	minSetupReps = 3
	maxSetupReps = 25
	setupBudget  = 2 * time.Second
)

// repeatSetup runs one set-up repeatedly by that rule; once returns the
// duration of its timed part in seconds.
func repeatSetup(once func(rep int) (float64, error)) ([]float64, error) {
	var times []float64
	start := time.Now()
	for len(times) < minSetupReps || (time.Since(start) < setupBudget && len(times) < maxSetupReps) {
		t, err := once(len(times))
		if err != nil {
			return nil, err
		}
		times = append(times, t)
	}
	return times, nil
}

// batchesPerInstance is the size of each instance's seeded write pool.
const batchesPerInstance = 32

// batchWorkload is a closed-loop, single-client library workload: every
// op runs one public call on a fresh snapshot of one instance at one
// worker count.
type batchWorkload struct {
	graphs    func() []namedGraph
	reference func(ctx context.Context, in *instance) error
	opName    string
	op        func(ctx context.Context, in *instance, workers int) (*mincut.Snapshot, func() error, error)
	// appliesPerPass is how many seeded write batches each pass applies
	// to every instance's warm snapshot.
	appliesPerPass int
}

// config is one (instance, workers) pair of a batch workload.
type config struct {
	inst    int
	workers int
}

func (c config) label(insts []*instance) string {
	return fmt.Sprintf("%s/w%d", insts[c.inst].name, c.workers)
}

// workerCounts is the sweep of every batch workload: 1 and GOMAXPROCS.
func workerCounts() []int {
	if p := runtime.GOMAXPROCS(0); p > 1 {
		return []int{1, p}
	}
	return []int{1}
}

var fig5Workload = batchWorkload{
	graphs: fig5Graphs,
	reference: func(ctx context.Context, in *instance) error {
		cut := mincut.Solve(in.g, mincut.Options{Algorithm: mincut.AlgoNOI})
		in.lambda = cut.Value
		return checkWitness(in, cut.Side)
	},
	opName: "mincut.Snapshot.MinCut",
	op: func(ctx context.Context, in *instance, workers int) (*mincut.Snapshot, func() error, error) {
		snap := mincut.NewSnapshot(in.g, mincut.SnapshotOptions{Solve: mincut.Options{Workers: workers}})
		cut, err := snap.MinCut(ctx)
		if err != nil {
			return nil, nil, err
		}
		return snap, func() error { return checkMinCut(in, cut.Value, cut.Side) }, nil
	},
	appliesPerPass: 2,
}

var allCutsWorkload = batchWorkload{
	graphs: allCutsGraphs,
	reference: func(ctx context.Context, in *instance) error {
		switch in.name {
		case "ring_1024":
			in.lambda, in.cuts = 2, ringCuts(1024)
		case "starofcycles_16_64":
			in.lambda, in.cuts = 2, starOfCyclesCuts(16, 64)
		default:
			res, err := mincut.AllMinCuts(in.g, mincut.AllCutsOptions{Strategy: mincut.StrategyQuadratic, NoMaterialize: true})
			if err != nil {
				return fmt.Errorf("%s: quadratic reference: %w", in.name, err)
			}
			in.lambda, in.cuts = res.Lambda, res.NumCuts()
		}
		return nil
	},
	opName: "mincut.Snapshot.AllMinCuts",
	op: func(ctx context.Context, in *instance, workers int) (*mincut.Snapshot, func() error, error) {
		snap := mincut.NewSnapshot(in.g, mincut.SnapshotOptions{
			AllCuts: mincut.AllCutsOptions{Workers: workers, NoMaterialize: true},
		})
		res, err := snap.AllMinCuts(ctx)
		if err != nil {
			return nil, nil, err
		}
		return snap, func() error { return checkAllCuts(in, res) }, nil
	},
	appliesPerPass: 4,
}

func runFig5(ctx context.Context, o options, rep *report, tr *tracer) error {
	return runBatch(ctx, o, rep, tr, fig5Workload)
}

func runAllCuts(ctx context.Context, o options, rep *report, tr *tracer) error {
	return runBatch(ctx, o, rep, tr, allCutsWorkload)
}

// setupBatch generates and writes the instances, then reads every file
// through the public reader repeatedly (see repeatSetup) and reports the
// median.
func setupBatch(ctx context.Context, o options, rep *report, wl batchWorkload) ([]*instance, error) {
	graphs, err := rotate(wl.graphs(), o.seed)
	if err != nil {
		return nil, err
	}
	insts, err := writeInstances(o.workDir, graphs)
	if err != nil {
		return nil, err
	}
	times, err := repeatSetup(func(int) (float64, error) {
		for _, in := range insts {
			in.g = nil
		}
		runtime.GC()
		start := time.Now()
		for _, in := range insts {
			var err error
			if in.g, err = readInstance(in); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Seconds(), nil
	})
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", median(times))
	fmt.Printf("# setup_s runs: %.4f\n", times)
	for i, in := range insts {
		if err := wl.reference(ctx, in); err != nil {
			return nil, err
		}
		in.batches = replaceBatches(seededEdges(in.g, batchesPerInstance, o.seed*1000003+uint64(i)))
		fmt.Printf("# instance %-20s n=%-7d m=%-8d lambda=%d cuts=%d\n", in.name, in.g.NumVertices(), in.g.NumEdges(), in.lambda, in.cuts)
	}
	return insts, nil
}

// passStats holds the samples of the timed phase.
type passStats struct {
	opMS, allocMB [][]float64 // per config
	mutMS         [][]float64 // per instance
	busyMS        float64     // summed latency of every completed op
	attempted     int
	failed        int
}

// runPasses runs the closed loop for dur: each pass runs every config
// once in a seeded order, then applies appliesPerPass seeded write
// batches to the warm GOMAXPROCS snapshot of every instance. A garbage
// collection runs before each op, outside its timed window, so every op
// starts from the same heap state. Passes are never cut short, and they
// continue past dur until both tails have enough samples, for at most
// another dur.
func runPasses(ctx context.Context, wl batchWorkload, insts []*instance, configs []config, dur time.Duration, rng *gen.RNG, tr *tracer) (*passStats, error) {
	ps := &passStats{
		opMS:    make([][]float64, len(configs)),
		allocMB: make([][]float64, len(configs)),
		mutMS:   make([][]float64, len(insts)),
	}
	maxW := runtime.GOMAXPROCS(0)
	deadline := time.Now().Add(dur)
	limit := deadline.Add(dur)
	more := func(ops, applies int) bool {
		now := time.Now()
		return now.Before(deadline) || (now.Before(limit) && (tailRank(ops) == 0 || tailRank(applies) == 0))
	}
	op := 0 // span ids of one traced op
	ops, applies := 0, 0
	for pass := 0; pass == 0 || more(ops, applies); pass++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		warm := make([]*mincut.Snapshot, len(insts))
		for _, ci := range seededOrder(len(configs), rng) {
			c := configs[ci]
			in := insts[c.inst]
			runtime.GC()
			a0 := totalAllocMB()
			var snap *mincut.Snapshot
			var check func() error
			var err error
			op++
			ms := tr.timed(wl.opName, op, -1, func() { snap, check, err = wl.op(ctx, in, c.workers) })
			alloc := totalAllocMB() - a0
			ps.attempted++
			if err != nil {
				ps.failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", c.label(insts), err)
				continue
			}
			if err := check(); err != nil {
				return nil, err
			}
			ops++
			ps.opMS[ci] = append(ps.opMS[ci], ms)
			ps.allocMB[ci] = append(ps.allocMB[ci], alloc)
			ps.busyMS += ms
			if c.workers == maxW {
				warm[c.inst] = snap
			}
		}
		for k := 0; k < wl.appliesPerPass; k++ {
			for i, in := range insts {
				if warm[i] == nil {
					continue
				}
				batch := in.batches[(pass*wl.appliesPerPass+k)%len(in.batches)]
				var next *mincut.Snapshot
				var reused mincut.Reused
				var err error
				op++
				ms := tr.timed("mincut.Snapshot.Apply", op, -1, func() { next, reused, err = warm[i].Apply(ctx, batch) })
				ps.attempted++
				if err != nil {
					ps.failed++
					fmt.Fprintf(os.Stderr, "perfbench: %s apply: %v\n", in.name, err)
					continue
				}
				if err := checkApply(in, batch, warm[i], next, reused); err != nil {
					return nil, err
				}
				applies++
				ps.mutMS[i] = append(ps.mutMS[i], ms)
				ps.busyMS += ms
			}
		}
	}
	return ps, nil
}

func runBatch(ctx context.Context, o options, rep *report, tr *tracer, wl batchWorkload) error {
	insts, err := setupBatch(ctx, o, rep, wl)
	if err != nil {
		return err
	}
	var configs []config
	for i := range insts {
		for _, w := range workerCounts() {
			configs = append(configs, config{inst: i, workers: w})
		}
	}
	rng := gen.NewRNG(o.seed ^ 0x5eed)
	dur := secondsToDuration(o.seconds)
	if tr != nil {
		return traceBatch(ctx, o, rep, tr, wl, insts, configs, rng)
	}

	rss, err := startPeakRSS(os.Getpid())
	if err != nil {
		return err
	}
	steal := startSteal()
	ps, err := runPasses(ctx, wl, insts, configs, dur, rng, nil)
	if err != nil {
		return err
	}
	fmt.Printf("# cpu steal during the timed phase: %.1f%%\n", steal.percent())
	peak, err := rss.stop()
	if err != nil {
		return err
	}
	rep.attempted, rep.failed = ps.attempted, ps.failed
	opTail := pooledTail(ps.opMS)
	mutTail := pooledTail(ps.mutMS)
	rep.set("op_p50_ms", geomeanOfMedians(ps.opMS))
	rep.set("op_tail_ms", opTail.Value)
	rep.set("throughput_ops_s", float64(ps.attempted-ps.failed)/(ps.busyMS/1e3))
	rep.set("alloc_mb_per_op", geomeanOfMedians(ps.allocMB))
	rep.set("peak_rss_mb", peak)
	rep.set("ok_ratio", float64(ps.attempted-ps.failed)/float64(ps.attempted))
	rep.set("mutate_p50_ms", geomeanOfMedians(ps.mutMS))
	rep.set("mutate_tail_ms", mutTail.Value)
	fmt.Printf("# op_tail_ms at p%.2f of %d ops; mutate_tail_ms at p%.2f of %d applies; fail_ratio %d/%d\n",
		opTail.Percentile, opTail.Samples, mutTail.Percentile, mutTail.Samples, ps.failed, ps.attempted)
	for ci, c := range configs {
		fmt.Printf("# %-24s ops=%-3d p50=%10.3f ms  alloc=%9.2f MB\n", c.label(insts), len(ps.opMS[ci]), median(ps.opMS[ci]), median(ps.allocMB[ci]))
	}
	for i, in := range insts {
		fmt.Printf("# %-24s applies=%-3d p50=%10.3f ms\n", in.name, len(ps.mutMS[i]), median(ps.mutMS[i]))
	}
	return nil
}
