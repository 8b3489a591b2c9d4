// Package viecut implements the inexact shared-memory minimum-cut
// algorithm VieCut of Henzinger, Noe, Schulz and Strash (ALENEX 2018),
// which the paper uses to obtain the tight upper bound λ̂ that powers all
// of its λ̂-dependent optimizations (§2.4, §3.1.1): repeated rounds of
// parallel label-propagation clustering, cluster contraction and
// Padberg–Rinaldi reductions shrink the graph until an exact solver
// finishes it off. The result is the value and witness of a genuine cut —
// in practice usually the minimum cut itself — and therefore always a
// sound upper bound for the exact algorithms.
package viecut

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/gen"
	"repro/internal/graph"
)

// lpBlock is the number of consecutive vertex ids label propagation
// visits as one unit of its shuffled order.
const lpBlock = 1024

// LabelPropagation runs the given number of asynchronous label-propagation
// iterations (Raghavan et al., the clustering inside VieCut) over g with
// the given parallelism and returns the final label of every vertex.
// Each vertex adopts the label with maximum total incident edge weight
// among its neighbors; ties prefer the smaller label. Concurrent workers
// read labels racily through atomics, exactly like the original
// shared-memory implementation.
//
// The visit order is randomized at block granularity: the ids are cut
// into fixed blocks of lpBlock consecutive vertices, the blocks are
// shuffled with a generator seeded by seed, and each block is visited in
// ascending id order. Rows, labels and accumulator entries of nearby ids
// then share cache lines, where a full random permutation of the
// vertices would miss the cache on almost every visit. Workers own
// contiguous runs of the shuffled blocks. Each worker allocates its dense
// per-label accumulator and its touched list once per call and keeps them
// across iterations, clearing only the entries it touched after every
// vertex.
func LabelPropagation(g *graph.Graph, iters, workers int, seed uint64) []int32 {
	n := g.NumVertices()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nb := (n + lpBlock - 1) / lpBlock
	workers = max(min(workers, nb), 1)
	cs := g.CSR()
	labels := make([]atomic.Int32, n)
	for i := range labels {
		labels[i].Store(int32(i))
	}
	blocks := gen.NewRNG(seed).Perm(nb)
	// scratch[w] belongs to worker w alone; wg.Wait orders its reuse by
	// the next iteration's goroutine for the same w.
	scratch := make([]lpScratch, workers)

	var wg sync.WaitGroup
	chunk := (nb + workers - 1) / workers
	for it := 0; it < iters; it++ {
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := min(lo+chunk, nb)
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				sc := &scratch[w]
				if sc.acc == nil {
					sc.acc = make([]int64, n)
				}
				acc, touched := sc.acc, sc.touched
				for _, b := range blocks[lo:hi] {
					first := int(b) * lpBlock
					for v := first; v < min(first+lpBlock, n); v++ {
						vlo, vhi := cs.XAdj[v], cs.XAdj[v+1]
						if vlo == vhi {
							continue
						}
						row, wgt := cs.Adj[vlo:vhi], cs.Wgt[vlo:vhi]
						if cap(touched) < len(row) {
							touched = make([]int32, max(len(row), 2*cap(touched)))
						}
						// Every label is written at touched[k], and k
						// advances only for a label new to this row: no
						// branch on data the predictor cannot learn.
						touched = touched[:len(row)]
						k := 0
						for j, u := range row {
							l := labels[u].Load()
							a := acc[l]
							touched[k] = l
							if a == 0 {
								k++
							}
							acc[l] = a + wgt[j]
						}
						touched = touched[:k]
						best := labels[v].Load()
						bestW := acc[best]
						for _, l := range touched {
							if acc[l] > bestW || (acc[l] == bestW && l < best) {
								best, bestW = l, acc[l]
							}
						}
						for _, l := range touched {
							acc[l] = 0
						}
						labels[v].Store(best)
					}
				}
				sc.touched = touched
			}(w, lo, hi)
		}
		wg.Wait()
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = labels[i].Load()
	}
	return out
}

// lpScratch is the state one label-propagation worker keeps across
// iterations: a dense accumulator indexed by label (labels live in
// [0, n), so an array with a touched-list reset beats a map) and the list
// of labels the current row touched.
type lpScratch struct {
	acc     []int64
	touched []int32
}
