// Command mincut computes the minimum cut of a graph file.
//
// Usage:
//
//	mincut [-algo parcut|noi|noi-hnss|ho|sw|ks|viecut|matula]
//	       [-queue bstack|bqueue|heap] [-workers N] [-seed S]
//	       [-format auto|metis|edgelist|matrixmarket] [-side] [-all]
//	       [-strategy auto|kt|quadratic] graphfile
//
// The graph is read in METIS format by default ("-" reads stdin);
// -format matrixmarket reads SuiteSparse .mtx files, and -format auto
// detects the format from the extension (.mtx → MatrixMarket, .txt/.el
// → edge list, anything else → METIS). The program prints the cut
// value, the algorithm, the wall time, and with -side the vertices of
// the smaller cut side. With -all it enumerates every minimum cut (by
// default with the Karzanov–Timofeev strategy, its steps sharded across
// -workers; -strategy quadratic selects the per-vertex reference
// enumeration), prints the count and the cactus summary, and with -side
// additionally one line per cut, streamed from the cactus without
// materializing the full cut list. The enumeration output is identical
// for every -workers value.
//
// SIGINT cancels the computation at the next phase boundary; the
// partial progress (the best bound so far for the solver) is printed
// before exiting with status 130.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	mincut "repro"
)

func main() {
	algo := flag.String("algo", "parcut", "algorithm: parcut, noi, noi-hnss, ho, sw, ks, viecut, matula")
	queue := flag.String("queue", "", "priority queue: bstack, bqueue, heap (default: per-algorithm best)")
	workers := flag.Int("workers", 0, "parallel workers (0 = all cores)")
	seed := flag.Uint64("seed", 1, "random seed")
	format := flag.String("format", "metis", "input format: auto, metis, edgelist, or matrixmarket")
	side := flag.Bool("side", false, "print the smaller side of the cut")
	trials := flag.Int("trials", 0, "Karger-Stein trials (0 = log² n)")
	eps := flag.Float64("eps", 0.5, "Matula approximation slack ε")
	st := flag.String("st", "", "compute the minimum s-t cut instead, as \"s,t\"")
	tree := flag.Bool("tree", false, "build the Gomory-Hu flow tree and print per-vertex connectivity stats")
	all := flag.Bool("all", false, "enumerate ALL minimum cuts and print the cactus summary")
	maxCuts := flag.Int("maxcuts", 0, "with -all: abort if more minimum cuts than this (0 = the library default)")
	strategy := flag.String("strategy", "auto", "with -all: enumeration strategy: auto, kt, quadratic")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mincut [flags] graphfile  (see -h)")
		os.Exit(2)
	}
	g, err := mincut.ReadGraphFile(flag.Arg(0), *format)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mincut: %v\n", err)
		os.Exit(1)
	}

	// SIGINT aborts the solve at its next phase boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *all && (*st != "" || *tree) {
		fmt.Fprintln(os.Stderr, "mincut: -all cannot be combined with -st or -tree")
		os.Exit(2)
	}
	if *st != "" {
		if err := runST(os.Stdout, g, *st); err != nil {
			fmt.Fprintf(os.Stderr, "mincut: %v\n", err)
			os.Exit(2)
		}
		return
	}
	if *tree {
		runTree(g)
		return
	}
	if *all {
		// Stream cuts from the cactus instead of materializing the full
		// list: cycle-heavy inputs have Θ(n²) minimum cuts, and the
		// materialized boolean sides would cost Θ(n³) bytes.
		opts := mincut.AllCutsOptions{
			Workers: *workers, Seed: *seed, MaxCuts: *maxCuts, NoMaterialize: true,
		}
		switch *strategy {
		case "auto":
			opts.Strategy = mincut.StrategyAuto
		case "kt":
			opts.Strategy = mincut.StrategyKT
		case "quadratic":
			opts.Strategy = mincut.StrategyQuadratic
		default:
			fmt.Fprintf(os.Stderr, "mincut: unknown strategy %q\n", *strategy)
			os.Exit(2)
		}
		if err := runAll(ctx, os.Stdout, g, opts, *side); err != nil {
			fmt.Fprintf(os.Stderr, "mincut: %v\n", err)
			if errors.Is(err, context.Canceled) {
				os.Exit(130)
			}
			os.Exit(1)
		}
		return
	}

	opts := mincut.Options{Workers: *workers, Seed: *seed, Trials: *trials, Epsilon: *eps}
	switch *algo {
	case "parcut":
		opts.Algorithm = mincut.AlgoParallel
	case "noi":
		opts.Algorithm = mincut.AlgoNOI
	case "noi-hnss":
		opts.Algorithm = mincut.AlgoNOIUnbounded
	case "ho":
		opts.Algorithm = mincut.AlgoHaoOrlin
	case "sw":
		opts.Algorithm = mincut.AlgoStoerWagner
	case "ks":
		opts.Algorithm = mincut.AlgoKargerStein
	case "viecut":
		opts.Algorithm = mincut.AlgoVieCut
	case "matula":
		opts.Algorithm = mincut.AlgoMatula
	default:
		fmt.Fprintf(os.Stderr, "mincut: unknown algorithm %q\n", *algo)
		os.Exit(2)
	}
	switch *queue {
	case "":
	case "bstack":
		opts.Queue = mincut.QueueBStack
	case "bqueue":
		opts.Queue = mincut.QueueBQueue
	case "heap":
		opts.Queue = mincut.QueueHeap
	default:
		fmt.Fprintf(os.Stderr, "mincut: unknown queue %q\n", *queue)
		os.Exit(2)
	}

	start := time.Now()
	cut, cerr := mincut.NewSnapshot(g, mincut.SnapshotOptions{Solve: opts}).MinCut(ctx)
	elapsed := time.Since(start)
	if cerr != nil {
		fmt.Fprintf(os.Stderr, "mincut: interrupted after %v; best bound so far: %d (not proven minimal)\n",
			elapsed, cut.Value)
		os.Exit(130)
	}

	exact := "exact"
	if !cut.Exact {
		exact = "inexact"
	}
	fmt.Printf("graph: n=%d m=%d\n", g.NumVertices(), g.NumEdges())
	fmt.Printf("mincut: %d (%s, %s) in %v\n", cut.Value, cut.Algorithm, exact, elapsed)
	if *side && cut.Side != nil {
		smaller := smallerSide(cut.Side)
		fmt.Printf("side (%d vertices):", len(smaller))
		for _, v := range smaller {
			fmt.Printf(" %d", v)
		}
		fmt.Println()
	}
}

// runAll enumerates every minimum cut and summarizes the cactus. With
// opts.NoMaterialize (the CLI default) the per-cut sides are streamed
// from the cactus one at a time instead of being materialized as a full
// Θ(C·n) list.
func runAll(ctx context.Context, w io.Writer, g *mincut.Graph, opts mincut.AllCutsOptions, printSides bool) error {
	start := time.Now()
	all, err := mincut.NewSnapshot(g, mincut.SnapshotOptions{AllCuts: opts}).AllMinCuts(ctx)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return fmt.Errorf("interrupted after %v: %w", time.Since(start), err)
		}
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(w, "graph: n=%d m=%d\n", g.NumVertices(), g.NumEdges())
	if !all.Connected {
		fmt.Fprintf(w, "graph disconnected (%d components): every grouping of whole components is a minimum cut of weight 0\n",
			all.Components)
		return nil
	}
	fmt.Fprintf(w, "lambda: %d\n", all.Lambda)
	fmt.Fprintf(w, "minimum cuts: %d distinct in %v (kernel: %d vertices, strategy: %v)\n",
		all.NumCuts(), elapsed, all.KernelVertices, all.Strategy)
	if c := all.Cactus; c != nil {
		fmt.Fprintf(w, "cactus: %d nodes, %d tree edges, %d cycles\n",
			c.NumNodes, c.NumTreeEdges(), c.NumCycles)
	}
	if printSides {
		printCut := func(i int, side []bool) {
			smaller := smallerSide(side)
			fmt.Fprintf(w, "cut %d (%d vertices):", i, len(smaller))
			for _, v := range smaller {
				fmt.Fprintf(w, " %d", v)
			}
			fmt.Fprintln(w)
		}
		if all.Cuts != nil {
			for i, side := range all.Cuts {
				printCut(i, side)
			}
		} else if all.Cactus != nil {
			i := 0
			all.Cactus.EachMinCut(func(side []bool) bool {
				printCut(i, side)
				i++
				return true
			})
		}
	}
	return nil
}

// runST computes a single minimum s-t cut. Every error it returns is a
// usage error: a malformed spec, an id out of range, or s == t.
func runST(w io.Writer, g *mincut.Graph, spec string) error {
	var s, t int32
	n := g.NumVertices()
	if _, err := fmt.Sscanf(spec, "%d,%d", &s, &t); err != nil ||
		s < 0 || int(s) >= n || t < 0 || int(t) >= n || s == t {
		return fmt.Errorf("bad -st %q (want \"s,t\": two distinct vertex ids in [0,%d))", spec, n)
	}
	start := time.Now()
	val, side := mincut.MinSTCut(g, s, t)
	fmt.Fprintf(w, "min %d-%d cut: %d in %v\n", s, t, val, time.Since(start))
	count := 0
	for _, in := range side {
		if in {
			count++
		}
	}
	fmt.Fprintf(w, "s-side size: %d of %d\n", count, n)
	return nil
}

// runTree builds the flow-equivalent tree and summarizes connectivity.
func runTree(g *mincut.Graph) {
	start := time.Now()
	tree := mincut.BuildFlowTree(g)
	elapsed := time.Since(start)
	val, _ := tree.GlobalMinCut(g)
	// Histogram of tree edge weights = distribution of "weakest pairwise
	// connectivity" levels.
	hist := map[int64]int{}
	for v := int32(1); v < int32(tree.Len()); v++ {
		_, w := tree.Parent(v)
		hist[w]++
	}
	fmt.Printf("flow tree built in %v (%d max-flows)\n", elapsed, g.NumVertices()-1)
	fmt.Printf("global minimum cut: %d\n", val)
	fmt.Println("tree edge weight histogram (connectivity levels):")
	keys := make([]int64, 0, len(hist))
	for k := range hist {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		fmt.Printf("  %8d: %d tree edges\n", k, hist[k])
	}
}

func smallerSide(side []bool) []int32 {
	var a, b []int32
	for v, s := range side {
		if s {
			a = append(a, int32(v))
		} else {
			b = append(b, int32(v))
		}
	}
	if len(a) <= len(b) {
		return a
	}
	return b
}
