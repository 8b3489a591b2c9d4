package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	mincut "repro"
	"repro/internal/gen"
)

// writeAll writes graphs into a fresh directory and returns the bytes of
// each file.
func writeAll(t *testing.T, graphs []namedGraph) [][]byte {
	t.Helper()
	insts, err := writeInstances(t.TempDir(), graphs)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, in := range insts {
		buf, err := os.ReadFile(in.path)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, buf)
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	gs := func(seed uint64) []namedGraph {
		g, err := rotate(append(allCutsGraphs(), daemonGraph()), seed)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := writeAll(t, gs(7)), writeAll(t, gs(7))
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("instance %d: seed 7 wrote different bytes on two runs", i)
		}
	}
	c := writeAll(t, gs(8))
	if bytes.Equal(a[1], c[1]) || bytes.Equal(a[2], c[2]) || bytes.Equal(a[3], c[3]) {
		t.Error("seeds 7 and 8 wrote identical instances")
	}

	g := daemonGraph().g
	if !reflect.DeepEqual(seededEdges(g, 32, 11), seededEdges(g, 32, 11)) {
		t.Error("seeded write batches differ for one seed")
	}
	if !reflect.DeepEqual(seededCutQueries(g, 16, 11), seededCutQueries(g, 16, 11)) {
		t.Error("seeded /cutvalue queries differ for one seed")
	}
	draw := func(seed uint64) []reqKind {
		rng := gen.NewRNG(seed)
		out := make([]reqKind, 200)
		for i := range out {
			out[i] = pickKind(rng)
		}
		return out
	}
	if !reflect.DeepEqual(draw(5), draw(5)) {
		t.Error("request sequence differs for one seed")
	}
	if reflect.DeepEqual(draw(5), draw(6)) {
		t.Error("request sequences of seeds 5 and 6 are identical")
	}
}

func TestRotateKeepsAnswers(t *testing.T) {
	base := allCutsGraphs()[1] // star of cycles: closed-form answers
	for _, seed := range []uint64{1, 2, 3} {
		rot, err := rotate([]namedGraph{base}, seed)
		if err != nil {
			t.Fatal(err)
		}
		in := &instance{name: base.name, g: rot[0].g, lambda: 2, cuts: starOfCyclesCuts(16, 64)}
		res, err := mincut.AllMinCuts(in.g, mincut.AllCutsOptions{NoMaterialize: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := checkAllCuts(in, res); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestSeededEdgesExist(t *testing.T) {
	g := daemonGraph().g
	for _, e := range seededEdges(g, 64, 9) {
		if g.EdgeWeight(e.U, e.V) != e.Weight || e.Weight <= 0 {
			t.Fatalf("seeded edge %+v is not an edge of the graph", e)
		}
	}
}

func TestRequestMixSumsTo100(t *testing.T) {
	total := 0
	for _, p := range mixPercent {
		total += p
	}
	if total != 100 {
		t.Fatalf("request mix sums to %d", total)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the benchmark's metric
// definitions and BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bj struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &bj); err != nil {
		t.Fatal(err)
	}
	ms, err := loadMetrics()
	if err != nil {
		t.Fatal(err)
	}
	same := func(kind string, a, b []metricDef) {
		if len(a) != len(b) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, metrics.json %d", kind, len(a), len(b))
			return
		}
		for i := range a {
			if a[i].Name != b[i].Name || a[i].Unit != b[i].Unit || a[i].Better != b[i].Better {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s/%s, metrics.json %s/%s/%s", kind, i,
					a[i].Name, a[i].Unit, a[i].Better, b[i].Name, b[i].Unit, b[i].Better)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, ms.EndToEnd)
	same("per_layer", bj.PerLayer, ms.PerLayer)
	for _, d := range ms.PerLayer {
		if d.Moves == "" {
			t.Errorf("per-layer metric %s does not say which end-to-end metric it moves", d.Name)
		}
	}
}
