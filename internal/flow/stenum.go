package flow

import (
	"context"
	"fmt"
	"math"

	"repro/internal/graph"
)

// STEnum enumerates every minimum s-t cut of an undirected graph via the
// correspondence of Picard and Queyranne ("On the structure of all minimum
// cuts in a network", 1980): after a maximum flow is established, the
// s-sides of minimum s-t cuts are exactly the residual-successor-closed
// vertex sets containing s and not t, which factor through the strongly
// connected components of the residual graph. Construction runs one exact
// max flow (Dinic); Enumerate then lists cuts with polynomial delay.
//
// It is the building block of the all-global-minimum-cuts subsystem
// (internal/cactus): there the number of cuts is bounded by n(n-1)/2, so
// full enumeration is cheap. For arbitrary s-t pairs the number of minimum
// cuts can be exponential; Enumerate's callback can stop early.
type STEnum struct {
	p     *Progressive
	t     int32
	value int64
	dag   residualDAG // built lazily on first Enumerate or Count
}

const (
	sccFree int8 = iota
	sccMandatory
	sccForbidden
)

// NewSTEnum computes a maximum s-t flow of g (Dinic, through a
// single-source Progressive) and returns the enumerator. Value is
// available immediately; Enumerate lists every minimum s-t cut. It
// panics on out-of-range ids or s == t.
func NewSTEnum(g *graph.Graph, s, t int32) *STEnum {
	if err := checkST(g, s, t); err != nil {
		panic(err)
	}
	p := NewProgressive(g, s)
	// A Background context never cancels, so MaxFlowTo cannot fail.
	v, _ := p.MaxFlowTo(context.Background(), t, math.MaxInt64)
	return &STEnum{p: p, t: t, value: v}
}

// Value returns the maximum flow value = minimum s-t cut weight.
func (e *STEnum) Value() int64 { return e.value }

// Enumerate calls emit once per distinct minimum s-t cut with the s-side
// of the cut (emit must not retain the slice across calls). Returning
// false from emit stops the enumeration early. The number of emitted cuts
// equals the number of distinct minimum s-t cuts.
func (e *STEnum) Enumerate(emit func(sSide []bool) bool) {
	e.prepare()
	n := len(e.dag.scc)
	// Start from the mandatory SCCs; the recursion toggles free ones.
	inCut := make([]bool, e.dag.nscc)
	for c := 0; c < e.dag.nscc; c++ {
		inCut[c] = e.dag.state[c] == sccMandatory
	}
	side := make([]bool, n)
	emitCurrent := func() bool {
		for v := 0; v < n; v++ {
			side[v] = inCut[e.dag.scc[v]]
		}
		return emit(side)
	}
	// Process free SCCs sinks-first (reverse topological order), so when a
	// node is decided all its successors already are. Including a node is
	// legal iff every free successor is included (mandatory successors
	// always are; forbidden successors cannot occur for free nodes).
	var rec func(i int) bool
	rec = func(i int) bool {
		if i < 0 {
			return emitCurrent()
		}
		c := e.dag.order[i]
		// Branch 1: exclude c (always a valid extension).
		if !rec(i - 1) {
			return false
		}
		// Branch 2: include c if closure allows.
		for _, d := range e.dag.succ[c] {
			if !inCut[d] {
				return true
			}
		}
		inCut[c] = true
		ok := rec(i - 1)
		inCut[c] = false
		return ok
	}
	rec(len(e.dag.order) - 1)
}

// Count returns the number of distinct minimum s-t cuts, capped at limit
// (limit ≤ 0 means no cap). It runs the enumeration without materializing
// sides.
func (e *STEnum) Count(limit int) int {
	e.prepare()
	count := 0
	inCut := make([]bool, e.dag.nscc)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i < 0 {
			count++
			return limit <= 0 || count < limit
		}
		c := e.dag.order[i]
		if !rec(i - 1) {
			return false
		}
		for _, d := range e.dag.succ[c] {
			if !inCut[d] {
				return true
			}
		}
		inCut[c] = true
		ok := rec(i - 1)
		inCut[c] = false
		return ok
	}
	rec(len(e.dag.order) - 1)
	return count
}

// prepare builds the residual SCC condensation of the maximum flow.
func (e *STEnum) prepare() {
	if e.dag.scc != nil {
		return
	}
	d, err := e.p.condense(e.t)
	if err != nil {
		panic(err) // unreachable: NewSTEnum ran an exact max flow
	}
	e.dag = d
}

// residualDAG is the Picard–Queyranne structure of a maximum flow from a
// source set to a target t: the strongly connected components of the
// residual graph, each classified as mandatory (residual-reachable from
// the source set, so on the source side of every minimum cut), forbidden
// (reaches t, so on the t side of every minimum cut) or free, plus the
// DAG of the free ones. The source sides of the minimum cuts are exactly
// the mandatory components plus a successor-closed set of free ones.
type residualDAG struct {
	scc   []int32 // vertex -> SCC id
	nscc  int
	state []int8    // per SCC: mandatory / forbidden / free
	succ  [][]int32 // per free SCC: its free residual successors
	order []int32   // free SCCs in topological order (edges point forward)
}

// condense builds the residualDAG of p's current flow toward t, leaving
// the two reachability sets in p.fromS and p.toT. STEnum and ChainCuts
// both classify the residual structure through it. Edges from a free SCC
// into a mandatory one are always satisfied and edges into a forbidden
// one cannot exist (reaching it reaches t), so succ keeps free targets
// only. An error means an augmenting path is left: the flow toward t is
// not maximum.
func (p *Progressive) condense(t int32) (residualDAG, error) {
	nw := p.nw
	fromS := p.reachableFromSources()
	if fromS[t] {
		return residualDAG{}, fmt.Errorf("flow: augmenting path left toward %d (flow not maximum)", t)
	}
	toT := p.reachableTo(t)
	scc, nscc := residualSCC(nw)
	state := make([]int8, nscc)
	for v, c := range scc {
		switch {
		case fromS[v]:
			state[c] = sccMandatory
		case toT[v]:
			state[c] = sccForbidden
		}
	}

	seen := make([]int32, nscc)
	for i := range seen {
		seen[i] = -1
	}
	succ := make([][]int32, nscc)
	indeg := make([]int32, nscc)
	for v := int32(0); v < int32(nw.n); v++ {
		cv := scc[v]
		if state[cv] != sccFree {
			continue
		}
		for _, a := range nw.arcs(v) {
			if nw.res[a] <= 0 {
				continue
			}
			cw := scc[nw.head[a]]
			if cw == cv || state[cw] != sccFree || seen[cw] == cv {
				continue
			}
			seen[cw] = cv
			succ[cv] = append(succ[cv], cw)
			indeg[cw]++
		}
	}
	order := make([]int32, 0, nscc)
	for c := int32(0); c < int32(nscc); c++ {
		if state[c] == sccFree && indeg[c] == 0 {
			order = append(order, c)
		}
	}
	for i := 0; i < len(order); i++ {
		for _, d := range succ[order[i]] {
			indeg[d]--
			if indeg[d] == 0 {
				order = append(order, d)
			}
		}
	}
	return residualDAG{scc: scc, nscc: nscc, state: state, succ: succ, order: order}, nil
}

// residualSCC computes the strongly connected components of the residual
// graph (arcs with positive residual capacity) with an iterative Tarjan
// scan. Components are numbered in reverse topological order.
func residualSCC(nw *network) ([]int32, int) {
	n := nw.n
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	comp := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int32
	next := int32(0)
	nscc := 0

	type frame struct {
		v   int32
		arc int32 // position within nw.arcs(v)
	}
	var frames []frame
	for root := int32(0); root < int32(n); root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{v: root})
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			arcs := nw.arcs(f.v)
			advanced := false
			for f.arc < int32(len(arcs)) {
				a := arcs[f.arc]
				f.arc++
				if nw.res[a] <= 0 {
					continue
				}
				w := nw.head[a]
				if index[w] == unvisited {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
					advanced = true
					break
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
			}
			if advanced {
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = int32(nscc)
					if w == v {
						break
					}
				}
				nscc++
			}
		}
	}
	return comp, nscc
}

// dinicAugment augments nw in place toward a maximum flow from the
// source set to t and returns the value pushed, stopping early once it
// exceeds cap (pass math.MaxInt64 for an unconditional max flow). The
// scratch slices level and it must have length nw.n; queue only needs
// its backing capacity. It is the package's only augmenting routine,
// reached through Progressive.MaxFlowTo.
//
// A non-nil ctx is checked at every BFS phase boundary (each phase is one
// blocking-flow computation); cancellation stops augmenting and returns
// the value pushed so far. The partial flow left behind is feasible, so
// an aborted call never corrupts the shared residual state — the caller
// distinguishes "done" from "aborted" by checking ctx.Err() itself.
func dinicAugment(ctx context.Context, nw *network, sources []int32, t int32, cap int64, level, it, queue []int32) int64 {
	var total int64

	bfs := func() bool {
		for i := range level {
			level[i] = -1
		}
		queue = queue[:0]
		for _, s := range sources {
			level[s] = 0
			queue = append(queue, s)
		}
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, a := range nw.arcs(v) {
				w := nw.head[a]
				if level[w] < 0 && nw.res[a] > 0 {
					level[w] = level[v] + 1
					queue = append(queue, w)
				}
			}
		}
		return level[t] >= 0
	}

	var dfs func(v int32, limit int64) int64
	dfs = func(v int32, limit int64) int64 {
		if v == t {
			return limit
		}
		arcs := nw.arcs(v)
		for ; it[v] < int32(len(arcs)); it[v]++ {
			a := arcs[it[v]]
			w := nw.head[a]
			if nw.res[a] <= 0 || level[w] != level[v]+1 {
				continue
			}
			f := limit
			if nw.res[a] < f {
				f = nw.res[a]
			}
			if pushed := dfs(w, f); pushed > 0 {
				nw.push(a, pushed)
				return pushed
			}
		}
		level[v] = -1 // dead end
		return 0
	}

	for total <= cap && !(ctx != nil && ctx.Err() != nil) && bfs() {
		for i := range it {
			it[i] = 0
		}
		for _, s := range sources {
			for total <= cap {
				f := dfs(s, math.MaxInt64)
				if f == 0 {
					break
				}
				total += f
			}
			if total > cap {
				break
			}
		}
	}
	return total
}
