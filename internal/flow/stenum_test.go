package flow

import (
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// bruteAllSTCuts enumerates every minimum s-t cut of g (n ≤ 20) by
// exhaustive search and returns the minimum value and the sorted list of
// s-side bitmasks.
func bruteAllSTCuts(t *testing.T, g *graph.Graph, s, tt int32) (int64, []uint32) {
	t.Helper()
	n := g.NumVertices()
	if n > 20 {
		t.Fatalf("bruteAllSTCuts: n=%d too large", n)
	}
	edges := g.Edges()
	best := int64(1) << 62
	var masks []uint32
	for mask := uint32(0); mask < uint32(1)<<n; mask++ {
		if (mask>>uint(s))&1 != 1 || (mask>>uint(tt))&1 != 0 {
			continue
		}
		var val int64
		for _, e := range edges {
			if (mask>>uint(e.U))&1 != (mask>>uint(e.V))&1 {
				val += e.Weight
			}
		}
		switch {
		case val < best:
			best = val
			masks = masks[:0]
			masks = append(masks, mask)
		case val == best:
			masks = append(masks, mask)
		}
	}
	sort.Slice(masks, func(i, j int) bool { return masks[i] < masks[j] })
	return best, masks
}

func sideMask(side []bool) uint32 {
	var mask uint32
	for v, s := range side {
		if s {
			mask |= 1 << uint(v)
		}
	}
	return mask
}

func checkSTEnum(t *testing.T, g *graph.Graph, s, tt int32) {
	t.Helper()
	wantVal, wantMasks := bruteAllSTCuts(t, g, s, tt)
	e := NewSTEnum(g, s, tt)
	if e.Value() != wantVal {
		t.Fatalf("STEnum value = %d, brute force = %d", e.Value(), wantVal)
	}
	var gotMasks []uint32
	e.Enumerate(func(side []bool) bool {
		if !side[s] || side[tt] {
			t.Fatalf("emitted side has s=%v t=%v", side[s], side[tt])
		}
		gotMasks = append(gotMasks, sideMask(side))
		return true
	})
	sort.Slice(gotMasks, func(i, j int) bool { return gotMasks[i] < gotMasks[j] })
	if len(gotMasks) != len(wantMasks) {
		t.Fatalf("STEnum found %d cuts, brute force %d (got %x want %x)",
			len(gotMasks), len(wantMasks), gotMasks, wantMasks)
	}
	for i := range gotMasks {
		if gotMasks[i] != wantMasks[i] {
			t.Fatalf("cut sets differ: got %x want %x", gotMasks, wantMasks)
		}
	}
	if c := e.Count(0); c != len(wantMasks) {
		t.Fatalf("Count = %d, want %d", c, len(wantMasks))
	}
}

func TestSTEnumFixtures(t *testing.T) {
	// Path: every edge between s and t is a minimum cut.
	checkSTEnum(t, gen.Path(6), 0, 5)
	// Ring: λ(s,t)=2; cut pairs one edge on each side of the ring.
	checkSTEnum(t, gen.Ring(7), 0, 3)
	// Complete graph: unique minimum cut isolates the lighter endpoint.
	checkSTEnum(t, gen.Complete(5), 0, 4)
	// Star through the hub.
	checkSTEnum(t, gen.Star(6), 1, 2)
	// Grid corners.
	checkSTEnum(t, gen.Grid(3, 4), 0, 11)
}

func TestSTEnumDisconnectedPair(t *testing.T) {
	// s and t in different components: zero flow, cuts = closed sets of
	// the component structure.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 3)
	b.AddEdge(2, 3, 2)
	g := b.MustBuild()
	e := NewSTEnum(g, 0, 2)
	if e.Value() != 0 {
		t.Fatalf("disconnected s-t flow = %d, want 0", e.Value())
	}
	checkSTEnum(t, g, 0, 2)
}

func TestSTEnumRandom(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		n := 4 + int(seed%6)
		m := n + int(seed%7)
		g := gen.GNMWeighted(n, m, 4, seed)
		s, tt := int32(0), int32(n-1)
		checkSTEnum(t, g, s, tt)
	}
}

// TestSTMinCutMatchesEK checks both Dinic entry points — STMinCutCtx
// and STEnum's flow — against the Edmonds–Karp oracle.
func TestSTMinCutMatchesEK(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		n := 5 + int(seed%8)
		g := gen.ConnectedGNM(n, 2*n, seed)
		for _, pair := range [][2]int32{{0, int32(n - 1)}, {1, int32(n / 2)}} {
			s, tt := pair[0], pair[1]
			if s == tt {
				continue
			}
			dv, dside := dinicSTCut(g, s, tt)
			ev, _ := MaxFlowEK(g, s, tt)
			if dv != ev {
				t.Fatalf("seed %d: Dinic %d != Edmonds–Karp %d", seed, dv, ev)
			}
			if v := NewSTEnum(g, s, tt).Value(); v != ev {
				t.Fatalf("seed %d: STEnum value %d != Edmonds–Karp %d", seed, v, ev)
			}
			// The Dinic witness must evaluate to the flow value.
			var cut int64
			g.ForEachEdge(func(u, v int32, w int64) {
				if dside[u] != dside[v] {
					cut += w
				}
			})
			if cut != dv {
				t.Fatalf("seed %d: Dinic witness evaluates to %d, want %d", seed, cut, dv)
			}
		}
	}
}
