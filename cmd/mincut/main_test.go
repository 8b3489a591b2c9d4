package main

import (
	"context"
	"runtime"
	"strings"
	"testing"

	mincut "repro"
)

func TestRunAllSmoke(t *testing.T) {
	// C_6: λ=2 with 15 minimum cuts, cactus = the 6-cycle.
	b := mincut.NewBuilder(6)
	for i := 0; i < 6; i++ {
		b.AddEdge(int32(i), int32((i+1)%6), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runAll(context.Background(), &out, g, mincut.AllCutsOptions{}, true); err != nil {
		t.Fatalf("runAll: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"graph: n=6 m=6",
		"lambda: 2",
		"minimum cuts: 15 distinct",
		"cactus: 6 nodes, 0 tree edges, 1 cycles",
		"cut 0 (1 vertices):",
		"cut 14 (",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

// ringGraph builds the unit n-cycle, the Θ(n²)-cut adversary for -all.
func ringGraph(t *testing.T, n int) *mincut.Graph {
	t.Helper()
	b := mincut.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRunAllStreamsCuts checks that the streaming path (the CLI default,
// NoMaterialize) prints exactly the same number of cuts as the
// materialized path on a cut-heavy instance.
func TestRunAllStreamsCuts(t *testing.T) {
	g := ringGraph(t, 24) // 276 minimum cuts
	countCuts := func(noMat bool) int {
		var out strings.Builder
		opts := mincut.AllCutsOptions{Workers: 1, NoMaterialize: noMat}
		if err := runAll(context.Background(), &out, g, opts, true); err != nil {
			t.Fatalf("runAll: %v", err)
		}
		return strings.Count(out.String(), "\ncut ")
	}
	stream, full := countCuts(true), countCuts(false)
	if stream != 276 || full != 276 {
		t.Fatalf("streaming printed %d cuts, materialized %d, want 276 each", stream, full)
	}
}

// TestRunAllStreamingAllocs is the allocation regression test for the
// streaming -all path: on the unit cycle the materialized cut list is
// Θ(n²) boolean slices of n entries each, and streaming from the cactus
// must avoid that entire block. The gap on C_128 (8128 cuts × 128+
// bytes) is well over the asserted margin; a regression that silently
// re-materializes the list trips the check.
func TestRunAllStreamingAllocs(t *testing.T) {
	g := ringGraph(t, 128)
	measure := func(noMat bool) uint64 {
		opts := mincut.AllCutsOptions{Workers: 1, NoMaterialize: noMat}
		var out strings.Builder
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := runAll(context.Background(), &out, g, opts, false); err != nil {
			t.Fatalf("runAll: %v", err)
		}
		runtime.ReadMemStats(&after)
		if !strings.Contains(out.String(), "minimum cuts: 8128 distinct") {
			t.Fatalf("unexpected output:\n%s", out.String())
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	stream := measure(true)
	full := measure(false)
	const margin = 500 * 1024
	if stream+margin > full {
		t.Fatalf("streaming allocated %d bytes, materialized %d: expected at least %d of headroom",
			stream, full, margin)
	}
	t.Logf("C_128 -all allocations: streaming %dKB vs materialized %dKB", stream/1024, full/1024)
}

func TestRunAllDisconnected(t *testing.T) {
	b := mincut.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runAll(context.Background(), &out, g, mincut.AllCutsOptions{}, false); err != nil {
		t.Fatalf("runAll: %v", err)
	}
	if !strings.Contains(out.String(), "disconnected (2 components)") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}

// TestRunST checks the -st path: a valid pair prints the cut, and a
// malformed spec, an out-of-range id or s == t is a usage error rather
// than a panic.
func TestRunST(t *testing.T) {
	g := ringGraph(t, 6)
	var out strings.Builder
	if err := runST(&out, g, "0,3"); err != nil {
		t.Fatalf("runST: %v", err)
	}
	if got := out.String(); !strings.Contains(got, "min 0-3 cut: 2 in") || !strings.Contains(got, "s-side size: 1 of 6") {
		t.Fatalf("unexpected output:\n%s", got)
	}
	for _, spec := range []string{"0,99", "-1,2", "6,0", "2,2", "0", "a,b"} {
		var out strings.Builder
		if err := runST(&out, g, spec); err == nil {
			t.Errorf("runST(%q) = nil error, output %q", spec, out.String())
		}
		if out.Len() != 0 {
			t.Errorf("runST(%q) printed %q before failing", spec, out.String())
		}
	}
}
