// Command perfbench is the repository's end-to-end benchmark. It
// generates one workload's inputs from a seed, drives the program only
// through its public surfaces (the mincut package API and a mincutd
// child process over loopback), checks every answer, and prints each
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (run.sh builds the binaries first):
//
//	perfbench --workload fig5-solve --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the end-to-end metrics are reported; with --trace 1 the
// per-layer metrics, measured in a separate run that records spans
// around every layer call. metrics.json defines every metric, its unit,
// and which end-to-end metric a per-layer metric should move.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

//go:embed metrics.json
var metricsJSON []byte

// metricDef is one entry of metrics.json.
type metricDef struct {
	Name       string `json:"name"`
	Unit       string `json:"unit"`
	Better     string `json:"better"`
	Definition string `json:"definition"`
	Moves      string `json:"moves,omitempty"`
}

type metricSet struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadMetrics() (metricSet, error) {
	var ms metricSet
	err := json.Unmarshal(metricsJSON, &ms)
	return ms, err
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	mincutd  string // path of the mincutd binary (mincutd-mixed only)
	workDir  string // per-run directory for generated files, removed at exit
	traceDir string // where traced runs write their spans
}

// report collects one run's outcome.
type report struct {
	attempted, failed int
	metrics           map[string]float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// wrongAnswer marks a failed answer check: it aborts the run.
type wrongAnswer struct{ msg string }

func (e *wrongAnswer) Error() string { return "wrong answer: " + e.msg }

func wrongf(format string, args ...any) error {
	return &wrongAnswer{msg: fmt.Sprintf(format, args...)}
}

type workloadFunc func(ctx context.Context, o options, rep *report, tr *tracer) error

var workloads = map[string]workloadFunc{
	"fig5-solve":     runFig5,
	"allcuts-cycles": runAllCuts,
	"mincutd-mixed":  runDaemon,
}

func main() {
	os.Exit(run())
}

func run() int {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: fig5-solve, allcuts-cycles or mincutd-mixed")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the vertex relabelling, op order, write batches and request mix")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&o.mincutd, "mincutd", "", "mincutd binary (required by mincutd-mixed)")
	flag.StringVar(&o.workDir, "workdir", ".bench_build", "directory for generated inputs and traces")
	flag.Parse()
	o.trace = traceFlag == 1

	ms, err := loadMetrics()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: metrics.json: %v\n", err)
		return 2
	}
	wl, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload fig5-solve|allcuts-cycles|mincutd-mixed --seed N --seconds S --trace 0|1")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o.traceDir = filepath.Join(o.workDir, "traces")
	o.workDir = filepath.Join(o.workDir, "runs", fmt.Sprintf("%s-s%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(o.workDir)

	env := stampEnv(o)
	fmt.Printf("# env %s\n", env)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	rep := newReport()
	err = wl(ctx, o, rep, tr)
	var wrong *wrongAnswer
	if errors.As(err, &wrong) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		printResult(false, rep, nil)
		return 1
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}

	defs := ms.EndToEnd
	if o.trace {
		defs = ms.PerLayer
		path, err := tr.write(o.traceDir, fmt.Sprintf("%s-s%d.jsonl", o.workload, o.seed), env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Printf("# trace %s (%d spans)\n", path, len(tr.spans))
		tr.printSelfTimes(os.Stdout)
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s (%v)\n", o.workload, d.Name, v)
			return 1
		}
		fmt.Printf("%-34s %14.4f %s\n", d.Name, v, d.Unit)
	}
	printResult(true, rep, defs)
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the final result line.
func printResult(correct bool, rep *report, defs []metricDef) {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, max(rep.attempted, 1), rep.failed, map[string]jsonMetric{}}
	for _, d := range defs {
		out.Metrics[d.Name] = jsonMetric{Value: rep.metrics[d.Name], Unit: d.Unit}
	}
	buf, _ := json.Marshal(out) // plain structs and finite floats always marshal
	fmt.Println(string(buf))
}

// sortedKeys returns m's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// secondsToDuration converts the --seconds flag.
func secondsToDuration(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
