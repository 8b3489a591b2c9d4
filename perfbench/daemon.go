package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	mincut "repro"
	"repro/internal/gen"
)

// daemonClients is the number of closed-loop clients, each on its own
// keep-alive connection.
const daemonClients = 2

// reqKind is one request type of the mincutd-mixed traffic mix.
type reqKind int

const (
	reqMinCut reqKind = iota
	reqMinCutSide
	reqCutValue
	reqAllCuts
	reqMutate
	numKinds
)

var kindNames = [numKinds]string{"mincut", "mincut_side", "cutvalue", "allcuts", "mutate"}

// kindEndpoint is the /stats endpoint that serves each kind.
var kindEndpoint = [numKinds]string{"/mincut", "/mincut", "/cutvalue", "/allcuts", "/mutate"}

// mixPercent is the request mix; it sums to 100.
var mixPercent = [numKinds]int{60, 15, 10, 5, 10}

// pickKind draws a request kind from the mix.
func pickKind(rng *gen.RNG) reqKind {
	r := rng.Intn(100)
	for k, p := range mixPercent {
		if r < p {
			return reqKind(k)
		}
		r -= p
	}
	return reqMutate
}

// cutQuery is a seeded /cutvalue request with its reference answer.
type cutQuery struct {
	query string
	want  int64
}

const (
	cutQueryPool     = 64
	cutQueryVertices = 16
	// mutatePool is the number of distinct seeded /mutate batches: large
	// enough that the share of edges crossing a minimum cut, which sets
	// the Apply path, varies little between seeds.
	mutatePool = 256
	// checkpointEvery is mincutd's -checkpoint-every. A run holds some
	// 800 writes; at the default of 64 its ~12 checkpoints sat exactly at
	// the write tail's rank (10 samples beyond), so that tail flipped
	// between checkpoint and plain writes from run to run. Every 16th
	// write makes ~50 checkpoints, some 17 in each tail window, and the
	// tail measures them, and the writes queued behind them, steadily.
	checkpointEvery = 16
)

// seededCutQueries draws count sets of cutQueryVertices distinct
// vertices and evaluates each cut on the base graph.
func seededCutQueries(g *mincut.Graph, count int, seed uint64) []cutQuery {
	rng := gen.NewRNG(seed)
	n := g.NumVertices()
	out := make([]cutQuery, count)
	for i := range out {
		side := make([]bool, n)
		ids := make([]string, 0, cutQueryVertices)
		for len(ids) < min(cutQueryVertices, n) {
			v := rng.Intn(n)
			if !side[v] {
				side[v] = true
				ids = append(ids, strconv.Itoa(v))
			}
		}
		out[i] = cutQuery{query: strings.Join(ids, ","), want: mincut.CutValue(g, side)}
	}
	return out
}

// daemon is one mincutd child process.
type daemon struct {
	cmd      *exec.Cmd
	base     string // query address, http://host:port
	pprof    string // profiling address
	log      *os.File
	done     chan struct{}
	waitErr  error
	stopOnce sync.Once
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon launches mincutd on graphPath with a fresh write-ahead log
// in dir.
func startDaemon(bin, graphPath, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	paddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "mincutd.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-listen", addr, "-pprof", paddr, "-format", "metis",
		"-wal", filepath.Join(dir, "mutations.wal"), "-checkpoint-every", strconv.Itoa(checkpointEvery), graphPath)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark die without stopping it, the kernel kills the
	// daemon too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting mincutd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, pprof: "http://" + paddr, log: logf, done: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// stop terminates the daemon gracefully, killing it after a grace
// period, and waits for it to exit.
func (d *daemon) stop() {
	d.stopOnce.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-d.done:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
		d.log.Close()
	})
}

// logTail returns the end of the daemon's log, for error messages.
func (d *daemon) logTail() string {
	buf, _ := os.ReadFile(d.log.Name())
	return string(buf[max(0, len(buf)-400):])
}

// waitHealthy polls /healthz until the daemon answers.
func (d *daemon) waitHealthy(ctx context.Context, c *http.Client) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case <-d.done:
			return fmt.Errorf("mincutd exited before serving (%v): %s", d.waitErr, d.logTail())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if resp, err := c.Get(d.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("mincutd not healthy after 60s: %s", d.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

var totalAllocRE = regexp.MustCompile(`(?m)^# TotalAlloc = (\d+)$`)

// totalAllocMB reads the daemon's cumulative heap allocation from its
// profiling endpoint.
func (d *daemon) totalAllocMB(c *http.Client) (float64, error) {
	resp, err := c.Get(d.pprof + "/debug/pprof/allocs?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	m := totalAllocRE.FindSubmatch(body)
	if m == nil {
		return 0, errors.New("no TotalAlloc in the allocs profile")
	}
	b, err := strconv.ParseFloat(string(m[1]), 64)
	return b / (1 << 20), err
}

// endpointStats is one endpoint's counters from /stats.
type endpointStats struct {
	Requests  float64 `json:"requests"`
	CacheHits float64 `json:"cache_hits"`
	Coalesced float64 `json:"coalesced"`
	Shed      float64 `json:"shed"`
	AvgMicros float64 `json:"avg_latency_us"`
}

func (d *daemon) stats(c *http.Client) (map[string]endpointStats, error) {
	var out struct {
		Endpoints map[string]endpointStats `json:"endpoints"`
	}
	status, err := getJSON(c, d.base+"/stats", &out)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/stats: HTTP %d", status)
	}
	return out.Endpoints, err
}

// getJSON fetches url and decodes a 200 response body into v.
func getJSON(c *http.Client, url string, v any) (int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	return decodeResponse(resp, v)
}

func decodeResponse(resp *http.Response, v any) (int, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(body, v)
}

// daemonSetup is everything the load needs: the served instance with its
// references, the daemon, and the seeded request pools.
type daemonSetup struct {
	in      *instance
	d       *daemon
	queries []cutQuery
	bodies  [][]byte // seeded /mutate bodies
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
	}
}

// firstAnswers is the end of daemon set-up: the first /mincut and
// /allcuts, both checked.
func firstAnswers(c *http.Client, ds *daemonSetup) error {
	for _, k := range []reqKind{reqMinCut, reqAllCuts} {
		a, q, ok := ds.send(c, k, nil)
		if !ok {
			return fmt.Errorf("first %s request failed", kindNames[k])
		}
		if err := ds.check(k, a, q); err != nil {
			return err
		}
	}
	return nil
}

// answer is the decoded body of any query or mutate response.
type answer struct {
	Lambda    int64   `json:"lambda"`
	Side      []int32 `json:"side"`
	Value     int64   `json:"value"`
	Cuts      int     `json:"cuts"`
	Connected bool    `json:"connected"`
	Epoch     uint64  `json:"epoch"`
}

// send issues one request of kind k, drawing its parameters from rng
// (the first pool entry when rng is nil), and decodes the answer. ok is
// false when the request failed or was refused. q is the /cutvalue query
// sent, for the check.
func (ds *daemonSetup) send(c *http.Client, k reqKind, rng *gen.RNG) (a answer, q cutQuery, ok bool) {
	pick := func(n int) int {
		if rng == nil {
			return 0
		}
		return rng.Intn(n)
	}
	var resp *http.Response
	var err error
	switch k {
	case reqMinCut:
		resp, err = c.Get(ds.d.base + "/mincut")
	case reqMinCutSide:
		resp, err = c.Get(ds.d.base + "/mincut?side=1")
	case reqCutValue:
		q = ds.queries[pick(len(ds.queries))]
		resp, err = c.Get(ds.d.base + "/cutvalue?side=" + q.query)
	case reqAllCuts:
		resp, err = c.Get(ds.d.base + "/allcuts")
	case reqMutate:
		resp, err = c.Post(ds.d.base+"/mutate", "application/json", bytes.NewReader(ds.bodies[pick(len(ds.bodies))]))
	}
	if err != nil {
		return a, q, false
	}
	status, err := decodeResponse(resp, &a)
	return a, q, err == nil && status == http.StatusOK
}

// check verifies an answer of kind k against the base graph's
// references; every epoch holds the same graph, so they never change.
func (ds *daemonSetup) check(k reqKind, a answer, q cutQuery) error {
	in := ds.in
	switch k {
	case reqMinCut:
		if a.Lambda != in.lambda {
			return wrongf("/mincut: lambda %d, reference %d", a.Lambda, in.lambda)
		}
	case reqMinCutSide:
		side := make([]bool, in.g.NumVertices())
		for _, v := range a.Side {
			if v < 0 || int(v) >= len(side) {
				return wrongf("/mincut?side=1: vertex %d out of range", v)
			}
			side[v] = true
		}
		return checkMinCut(in, a.Lambda, side)
	case reqCutValue:
		return checkCutValue("/cutvalue?side="+q.query, a.Value, q.want)
	case reqAllCuts:
		if !a.Connected || a.Lambda != in.lambda {
			return wrongf("/allcuts: lambda %d, reference %d", a.Lambda, in.lambda)
		}
		return checkCount(in, a.Cuts)
	case reqMutate:
		if a.Epoch == 0 {
			return wrongf("/mutate: no new epoch in the answer")
		}
	}
	return nil
}

func setupDaemon(ctx context.Context, o options, rep *report) (*daemonSetup, error) {
	if o.mincutd == "" {
		return nil, errors.New("mincutd-mixed needs --mincutd")
	}
	graphs, err := rotate([]namedGraph{daemonGraph()}, o.seed)
	if err != nil {
		return nil, err
	}
	insts, err := writeInstances(o.workDir, graphs)
	if err != nil {
		return nil, err
	}
	in := insts[0]
	if in.g, err = readInstance(in); err != nil {
		return nil, err
	}
	cut := mincut.Solve(in.g, mincut.Options{Algorithm: mincut.AlgoNOI})
	in.lambda = cut.Value
	if err := checkWitness(in, cut.Side); err != nil {
		return nil, err
	}
	all, err := mincut.AllMinCuts(in.g, mincut.AllCutsOptions{Strategy: mincut.StrategyQuadratic, NoMaterialize: true})
	if err != nil {
		return nil, err
	}
	in.cuts = all.NumCuts()
	in.batches = replaceBatches(seededEdges(in.g, mutatePool, o.seed*1000003))
	ds := &daemonSetup{in: in, queries: seededCutQueries(in.g, cutQueryPool, o.seed*7919+1)}
	for _, b := range in.batches {
		body, err := json.Marshal(map[string]any{"mutations": wireBatch(b)})
		if err != nil {
			return nil, err
		}
		ds.bodies = append(ds.bodies, body)
	}
	fmt.Printf("# instance %-20s n=%-7d m=%-8d lambda=%d cuts=%d\n", in.name, in.g.NumVertices(), in.g.NumEdges(), in.lambda, in.cuts)

	// Set-up is process start to the first /mincut and /allcuts
	// answered. Each repetition starts a daemon on a fresh WAL and stops
	// the previous one (outside the timed interval); the last serves the
	// load.
	times, err := repeatSetup(func(r int) (float64, error) {
		if ds.d != nil {
			ds.d.stop()
		}
		c := newClient()
		defer c.CloseIdleConnections()
		start := time.Now()
		d, err := startDaemon(o.mincutd, in.path, filepath.Join(o.workDir, fmt.Sprintf("daemon-%d", r)))
		if err != nil {
			return 0, err
		}
		ds.d = d
		if err := d.waitHealthy(ctx, c); err != nil {
			return 0, err
		}
		if err := firstAnswers(c, ds); err != nil {
			return 0, err
		}
		return time.Since(start).Seconds(), nil
	})
	if err != nil {
		if ds.d != nil {
			ds.d.stop()
		}
		return nil, err
	}
	rep.set("setup_s", median(times))
	fmt.Printf("# setup_s runs: %.4f\n", times)
	return ds, nil
}

// loadStats holds one load phase's client-side samples.
type loadStats struct {
	latMS     [numKinds][]float64
	atS       [numKinds][]float64 // when each sample's request began, seconds into the phase
	attempted int
	failed    int
	wall      time.Duration
}

// all returns every kind's latencies with their start times.
func (ls *loadStats) all() (lat, at []float64) {
	for k := range ls.latMS {
		lat = append(lat, ls.latMS[k]...)
		at = append(at, ls.atS[k]...)
	}
	return lat, at
}

// runLoad drives daemonClients closed-loop clients for dur. Client c
// draws its requests from its own seeded generator, so a seed fixes
// every client's request sequence.
func runLoad(ctx context.Context, ds *daemonSetup, dur time.Duration, seed uint64, tr *tracer) (*loadStats, error) {
	per := make([]*loadStats, daemonClients)
	errs := make([]error, daemonClients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := range per {
		per[c] = &loadStats{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ls := per[c]
			client := newClient()
			defer client.CloseIdleConnections()
			rng := gen.NewRNG(seed*7919 + uint64(c) + 17)
			op := c << 24 // span ids: clients never share one
			for time.Now().Before(deadline) && ctx.Err() == nil {
				k := pickKind(rng)
				var a answer
				var q cutQuery
				var ok bool
				op++
				began := time.Since(start).Seconds()
				t := tr.timed("http "+kindNames[k], op, -1, func() { a, q, ok = ds.send(client, k, rng) })
				ls.attempted++
				if !ok {
					ls.failed++
					continue
				}
				if err := ds.check(k, a, q); err != nil {
					errs[c] = err
					return
				}
				ls.latMS[k] = append(ls.latMS[k], t)
				ls.atS[k] = append(ls.atS[k], began)
			}
		}(c)
	}
	wg.Wait()
	out := &loadStats{wall: time.Since(start)}
	for c, ls := range per {
		if errs[c] != nil {
			return nil, errs[c]
		}
		out.attempted += ls.attempted
		out.failed += ls.failed
		for k := range ls.latMS {
			out.latMS[k] = append(out.latMS[k], ls.latMS[k]...)
			out.atS[k] = append(out.atS[k], ls.atS[k]...)
		}
	}
	return out, ctx.Err()
}

func runDaemon(ctx context.Context, o options, rep *report, tr *tracer) error {
	ds, err := setupDaemon(ctx, o, rep)
	if err != nil {
		return err
	}
	defer ds.d.stop()
	c := newClient()
	defer c.CloseIdleConnections()
	if tr != nil {
		return traceDaemon(ctx, o, rep, tr, ds, c)
	}

	a0, err := ds.d.totalAllocMB(c)
	if err != nil {
		return err
	}
	rss, err := startPeakRSS(ds.d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	steal := startSteal()
	ls, err := runLoad(ctx, ds, secondsToDuration(o.seconds), o.seed, nil)
	if err != nil {
		return err
	}
	fmt.Printf("# cpu steal during the timed phase: %.1f%%\n", steal.percent())
	peak, err := rss.stop()
	if err != nil {
		return err
	}
	a1, err := ds.d.totalAllocMB(c)
	if err != nil {
		return err
	}
	done := float64(ls.attempted - ls.failed)
	rep.attempted, rep.failed = ls.attempted, ls.failed
	all, at := ls.all()
	span := secondsToDuration(o.seconds).Seconds()
	opTail, opWins := windowTail(all, at, span, tailWindows)
	mutTail, mutWins := windowTail(ls.latMS[reqMutate], ls.atS[reqMutate], span, tailWindows)
	rep.set("op_p50_ms", median(all))
	rep.set("op_tail_ms", opTail)
	rep.set("throughput_ops_s", done/ls.wall.Seconds())
	rep.set("alloc_mb_per_op", (a1-a0)/done)
	rep.set("peak_rss_mb", peak)
	rep.set("ok_ratio", done/float64(ls.attempted))
	rep.set("mutate_p50_ms", median(ls.latMS[reqMutate]))
	rep.set("mutate_tail_ms", mutTail)
	fmt.Printf("# tails are the median over %d equal windows of each window's tail; fail_ratio %d/%d\n",
		tailWindows, ls.failed, ls.attempted)
	for i := range opWins {
		fmt.Printf("# window %d: op_tail_ms %9.3f at p%.2f of %d requests; mutate_tail_ms %9.3f at p%.2f of %d\n", i,
			opWins[i].Value, opWins[i].Percentile, opWins[i].Samples, mutWins[i].Value, mutWins[i].Percentile, mutWins[i].Samples)
	}
	for k, xs := range ls.latMS {
		fmt.Printf("# %-12s n=%-6d p50=%9.3f ms\n", kindNames[k], len(xs), median(xs))
	}
	return nil
}

// traceDaemon is the traced run of mincutd-mixed: half the load
// untraced and half traced, the daemon's own counters from /stats, then
// the in-process layer probes on the served graph after the daemon has
// stopped.
func traceDaemon(ctx context.Context, o options, rep *report, tr *tracer, ds *daemonSetup, c *http.Client) error {
	s0, err := ds.d.stats(c)
	if err != nil {
		return err
	}
	half := secondsToDuration(o.seconds / 2)
	un, err := runLoad(ctx, ds, half, o.seed, nil)
	if err != nil {
		return err
	}
	traced, err := runLoad(ctx, ds, half, o.seed, tr)
	if err != nil {
		return err
	}
	s1, err := ds.d.stats(c)
	if err != nil {
		return err
	}
	rep.attempted = un.attempted + traced.attempted
	rep.failed = un.failed + traced.failed
	tracedLat, _ := traced.all()
	unLat, _ := un.all()
	rep.set("trace.overhead_ratio", median(tracedLat)/median(unLat))

	// Client-side mean per endpoint over both halves.
	clientSum := map[string]float64{}
	clientN := map[string]float64{}
	for _, ls := range []*loadStats{un, traced} {
		for k, xs := range ls.latMS {
			for _, x := range xs {
				clientSum[kindEndpoint[k]] += x
				clientN[kindEndpoint[k]]++
			}
		}
	}
	var hits, cached, coalesced, queries, shed float64
	for _, ep := range []string{"/mincut", "/allcuts", "/cutvalue", "/mutate"} {
		a, b := s0[ep], s1[ep]
		n := b.Requests - a.Requests
		if n <= 0 {
			return fmt.Errorf("/stats shows no %s requests during the load", ep)
		}
		serverMS := (b.AvgMicros*b.Requests - a.AvgMicros*a.Requests) / n / 1e3
		name := strings.TrimPrefix(ep, "/")
		rep.set("mincutd."+name+".server_ms", serverMS)
		rep.set("mincutd."+name+".outside_ms", clientSum[ep]/clientN[ep]-serverMS)
		shed += b.Shed - a.Shed
		if ep == "/mutate" {
			continue
		}
		queries += n
		coalesced += b.Coalesced - a.Coalesced
		if ep != "/cutvalue" { // /cutvalue never consults a certificate cache
			cached += n
			hits += b.CacheHits - a.CacheHits
		}
	}
	rep.set("serve.cache_hit_ratio", hits/cached)
	rep.set("serve.coalesced_ratio", coalesced/queries)
	rep.set("serve.shed", shed)
	ds.d.stop()

	agg := newLayerAgg()
	// The daemon's snapshot holds both certificates between writes.
	warm := func(ctx context.Context, in *instance) (*mincut.Snapshot, error) {
		snap := mincut.NewSnapshot(in.g, mincut.SnapshotOptions{AllCuts: mincut.AllCutsOptions{NoMaterialize: true}})
		if _, err := snap.MinCut(ctx); err != nil {
			return nil, err
		}
		_, err := snap.AllMinCuts(ctx)
		return snap, err
	}
	if err := probeLayers(ctx, o, []*instance{ds.in}, warm, agg, tr); err != nil {
		return err
	}
	agg.into(rep)
	return nil
}
