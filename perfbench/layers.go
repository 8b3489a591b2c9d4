package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	mincut "repro"
	"repro/internal/bench"
	"repro/internal/cactus"
	"repro/internal/capforest"
	"repro/internal/core"
	"repro/internal/dsu"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/persist"
	"repro/internal/pq"
	"repro/internal/viecut"
)

// probeOpBase numbers the probes' spans apart from the traced ops'.
const probeOpBase = 1 << 20

// replaysPerInstance is how many of an instance's seeded write batches
// the traced run replays through Snapshot.Apply and the WAL.
const replaysPerInstance = 8

// layerAgg reduces per-layer samples over (instance, workers)
// configurations: durations and rates by geometric mean, counts by sum,
// ratios by arithmetic mean.
type layerAgg struct {
	geo, sum, mean map[string][]float64
}

func newLayerAgg() *layerAgg {
	return &layerAgg{geo: map[string][]float64{}, sum: map[string][]float64{}, mean: map[string][]float64{}}
}

// minPositive keeps a geometric mean defined when a phase is too short
// for the clock (1 ns in ms).
const minPositive = 1e-6

func (a *layerAgg) addGeo(name string, v float64) {
	a.geo[name] = append(a.geo[name], math.Max(v, minPositive))
}
func (a *layerAgg) addSum(name string, v float64)  { a.sum[name] = append(a.sum[name], v) }
func (a *layerAgg) addMean(name string, v float64) { a.mean[name] = append(a.mean[name], v) }

func (a *layerAgg) into(rep *report) {
	for name, xs := range a.geo {
		rep.set(name, geomean(xs))
	}
	for name, xs := range a.sum {
		var s float64
		for _, x := range xs {
			s += x
		}
		rep.set(name, s)
	}
	for name, xs := range a.mean {
		var s float64
		for _, x := range xs {
			s += x
		}
		rep.set(name, s/float64(len(xs)))
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// daemonLayerMetrics are measured only where a mincutd child serves the
// workload; the batch workloads start none and report them as 0.
var daemonLayerMetrics = []string{
	"mincutd.mincut.server_ms", "mincutd.allcuts.server_ms", "mincutd.cutvalue.server_ms", "mincutd.mutate.server_ms",
	"mincutd.mincut.outside_ms", "mincutd.allcuts.outside_ms", "mincutd.cutvalue.outside_ms", "mincutd.mutate.outside_ms",
	"serve.cache_hit_ratio", "serve.coalesced_ratio", "serve.shed",
}

// traceBatch is the traced run of a batch workload: half the timed phase
// untraced and half traced (their op-time ratio is the tracing
// overhead), then one probe of every layer on every instance.
func traceBatch(ctx context.Context, o options, rep *report, tr *tracer, wl batchWorkload, insts []*instance, configs []config, rng *gen.RNG) error {
	half := secondsToDuration(o.seconds / 2)
	un, err := runPasses(ctx, wl, insts, configs, half, rng, nil)
	if err != nil {
		return err
	}
	traced, err := runPasses(ctx, wl, insts, configs, half, rng, tr)
	if err != nil {
		return err
	}
	rep.attempted = un.attempted + traced.attempted
	rep.failed = un.failed + traced.failed
	rep.set("trace.overhead_ratio", geomeanOfMedians(traced.opMS)/geomeanOfMedians(un.opMS))
	agg := newLayerAgg()
	warm := func(ctx context.Context, in *instance) (*mincut.Snapshot, error) {
		snap, _, err := wl.op(ctx, in, runtime.GOMAXPROCS(0))
		return snap, err
	}
	if err := probeLayers(ctx, o, insts, warm, agg, tr); err != nil {
		return err
	}
	agg.into(rep)
	for _, name := range daemonLayerMetrics {
		rep.set(name, 0)
	}
	fmt.Println("# mincutd.* and serve.*: bypass, this workload starts no daemon (reported as 0)")
	return nil
}

// probeLayers calls every layer once per (instance, workers) on the
// workload's own inputs, inside spans, and records the counters and
// phase splits the layers return. The write batches are replayed on the
// snapshot warm returns, warmed as the workload's own ops warm it.
func probeLayers(ctx context.Context, o options, insts []*instance, warm func(context.Context, *instance) (*mincut.Snapshot, error), agg *layerAgg, tr *tracer) error {
	op := probeOpBase
	var readMS, readMB float64
	wal, err := persist.OpenWAL(filepath.Join(o.workDir, "probe.wal"))
	if err != nil {
		return err
	}
	defer wal.Close()
	var walMS []float64
	epoch := uint64(0)
	fmt.Printf("# %-20s %2s %10s %10s %8s %10s %10s %10s %7s %5s\n",
		"instance", "w", "noi_ms", "solve_ms", "speedup", "viecut_ms", "scan_ms", "contract_ms", "rounds", "seqfb")
	for _, in := range insts {
		op++
		root := tr.begin("probe "+in.name, op, -1)
		n := float64(in.g.NumVertices())

		var err error
		t := tr.timed("graphio.ReadFile", op, root, func() { _, err = readInstance(in) })
		if err != nil {
			return err
		}
		st, err := os.Stat(in.path)
		if err != nil {
			return err
		}
		readMS += t
		readMB += float64(st.Size()) / (1 << 20)

		noiMS := math.Inf(1)
		for _, a := range bench.SequentialAlgos()[1:] { // every NOI variant
			var v int64
			t := tr.timed("noi."+a.Name, op, root, func() { v = a.Run(in.g, 1) })
			if v != in.lambda {
				return wrongf("%s: %s lambda %d, reference %d", in.name, a.Name, v, in.lambda)
			}
			noiMS = math.Min(noiMS, t)
		}
		agg.addGeo("noi.solve_ms", noiMS)

		for _, w := range workerCounts() {
			var r core.Result
			t := tr.timed("core.ParallelMinimumCut", op, root, func() {
				r, err = core.ParallelMinimumCut(ctx, in.g, core.Options{Workers: w, Queue: pq.KindBQueue, Bounded: true, Seed: 1})
			})
			if err != nil {
				return err
			}
			if err := checkMinCut(in, r.Value, r.Side); err != nil {
				return err
			}
			agg.addGeo("core.solve_ms", t)
			agg.addGeo("core.viecut_ms", ms(r.Timing.VieCut))
			agg.addGeo("core.scan_ms", ms(r.Timing.Scan))
			agg.addGeo("core.contract_ms", ms(r.Timing.Contract))
			agg.addSum("core.rounds", float64(r.Rounds))
			agg.addSum("core.seq_fallbacks", float64(r.SeqFallbacks))
			agg.addSum("capforest.pq_pops", float64(r.Stats.Pops))
			agg.addSum("capforest.pq_updates", float64(r.Stats.Updates))
			agg.addSum("capforest.capped_skips", float64(r.Stats.CappedSkips))
			agg.addGeo("core.speedup_vs_noi", noiMS/t)
			fmt.Printf("# %-20s %2d %10.2f %10.2f %8.3f %10.2f %10.2f %10.2f %7d %5d\n", in.name, w, noiMS, t, noiMS/t,
				ms(r.Timing.VieCut), ms(r.Timing.Scan), ms(r.Timing.Contract), r.Rounds, r.SeqFallbacks)

			var vc viecut.Result
			t = tr.timed("viecut.Run", op, root, func() { vc = viecut.Run(in.g, viecut.Options{Workers: w, Seed: 1}) })
			agg.addGeo("viecut.run_ms", t)
			agg.addMean("viecut.bound_exact_ratio", b2f(vc.Value == in.lambda))

			u := dsu.NewConcurrent(in.g.NumVertices())
			t = tr.timed("capforest.RunParallel", op, root, func() {
				capforest.RunParallel(in.g, u, vc.Value, w, capforest.Options{Queue: pq.KindBQueue, Bounded: true, Seed: 2})
			})
			mapping, blocks := u.Mapping()
			agg.addGeo("capforest.scan_ms", t)
			agg.addMean("capforest.marked_ratio", (n-float64(blocks))/n)

			runtime.GC()
			a0 := totalAllocMB()
			t = tr.timed("graph.ContractParallel", op, root, func() {
				in.g.ContractParallel(graph.Mapping{Block: mapping, NumBlocks: blocks}, w)
			})
			agg.addGeo("graph.contract_ms", t)
			agg.addGeo("graph.contract_alloc_mb", totalAllocMB()-a0)

			var k core.Kernel
			t = tr.timed("core.KernelizeAllCuts", op, root, func() { k, err = core.KernelizeAllCuts(ctx, in.g, in.lambda, w, 1) })
			if err != nil {
				return err
			}
			agg.addGeo("core.kernelize_ms", t)
			agg.addSum("core.kernelize_rounds", float64(k.Rounds))
			agg.addMean("core.kernel_ratio", float64(k.Graph.NumVertices())/n)

			runtime.GC()
			a0 = totalAllocMB()
			var res *cactus.Result
			t = tr.timed("cactus.AllMinCuts", op, root, func() {
				res, err = cactus.AllMinCuts(ctx, in.g, cactus.Options{Workers: w, Seed: 1, Lambda: in.lambda, NoMaterialize: true})
			})
			if err != nil {
				return err
			}
			if in.cuts == 0 {
				in.cuts = res.NumCuts() // no closed form: workers agree, and the cold query below must match
			}
			if err := checkAllCuts(in, res); err != nil {
				return err
			}
			agg.addGeo("cactus.enumerate_ms", ms(res.Phases.Enumerate))
			agg.addGeo("cactus.assemble_ms", ms(res.Phases.Assemble))
			agg.addGeo("cactus.alloc_mb", totalAllocMB()-a0)
			agg.addSum("cactus.cuts", float64(res.NumCuts()))
			agg.addGeo("cactus.cuts_per_s", float64(res.NumCuts())/(t/1e3))

			opts := mincut.SnapshotOptions{
				Solve:   mincut.Options{Workers: w},
				AllCuts: mincut.AllCutsOptions{Workers: w, NoMaterialize: true},
			}
			var cut mincut.Cut
			t = tr.timed("mincut.Snapshot.MinCut", op, root, func() { cut, err = mincut.NewSnapshot(in.g, opts).MinCut(ctx) })
			if err != nil {
				return err
			}
			if err := checkMinCut(in, cut.Value, cut.Side); err != nil {
				return err
			}
			agg.addGeo("snapshot.mincut_cold_ms", t)
			var all *mincut.AllCuts
			t = tr.timed("mincut.Snapshot.AllMinCuts", op, root, func() { all, err = mincut.NewSnapshot(in.g, opts).AllMinCuts(ctx) })
			if err != nil {
				return err
			}
			if err := checkAllCuts(in, all); err != nil {
				return err
			}
			agg.addGeo("snapshot.allcuts_cold_ms", t)
		}

		base, err := warm(ctx, in)
		if err != nil {
			return err
		}
		var applyMS []float64
		var lam, cact, certify, rebuilds float64
		replays := in.batches[:min(replaysPerInstance, len(in.batches))]
		for _, batch := range replays {
			var next *mincut.Snapshot
			var reused mincut.Reused
			t := tr.timed("mincut.Snapshot.Apply", op, root, func() { next, reused, err = base.Apply(ctx, batch) })
			if err != nil {
				return err
			}
			if err := checkApply(in, batch, base, next, reused); err != nil {
				return err
			}
			applyMS = append(applyMS, t)
			lam += b2f(reused.Lambda)
			cact += b2f(reused.Cactus)
			certify += float64(reused.CertifyCalls)
			rebuilds += float64(reused.Rebuilds)

			epoch++
			rec := persist.Record{Epoch: epoch, Mutations: wireBatch(batch)}
			t = tr.timed("persist.WAL.Append", op, root, func() { err = wal.Append(rec) })
			if err != nil {
				return err
			}
			walMS = append(walMS, t)
		}
		agg.addGeo("snapshot.apply_ms", median(applyMS))
		agg.addMean("snapshot.lambda_reuse_ratio", lam/float64(len(replays)))
		agg.addMean("snapshot.cactus_reuse_ratio", cact/float64(len(replays)))
		agg.addSum("snapshot.certify_calls", certify)
		agg.addSum("snapshot.rebuilds", rebuilds)
		tr.end(root)
	}
	agg.addSum("graphio.read_ms", readMS)
	agg.addGeo("graphio.read_mb_s", readMB/(readMS/1e3))
	agg.addGeo("persist.wal_append_ms", median(walMS))
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// wireBatch is batch in the /mutate and WAL wire format.
func wireBatch(batch []mincut.Mutation) []persist.Mutation {
	out := make([]persist.Mutation, len(batch))
	for i, m := range batch {
		out[i] = persist.Mutation{Op: m.Op.String(), U: m.U, V: m.V}
		if m.Op == mincut.MutInsert {
			out[i].Weight = m.Weight
		}
	}
	return out
}
