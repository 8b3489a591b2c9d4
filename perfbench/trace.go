package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the index of the enclosing span, or -1.
type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e6 }

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: t.now()})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.now()
}

// timed runs fn inside a span and returns its duration in ms; it is
// also the untraced way to time a call, so traced and untraced runs
// measure the same interval.
func (t *tracer) timed(name string, op, parent int, fn func()) float64 {
	id := t.begin(name, op, parent)
	start := time.Now()
	fn()
	d := float64(time.Since(start).Nanoseconds()) / 1e6
	t.end(id)
	return d
}

// write stores the spans as JSON lines (the first line is the run's
// environment stamp) and returns the file's path.
func (t *tracer) write(dir, name, env string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(f, "{\"env\":%s}\n", env)
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	return path, f.Close()
}

// selfTimes sums, per span name, the count, total duration and self
// time: a span's duration minus the part its child spans cover.
type selfTime struct {
	Count       int
	Total, Self float64
}

func (t *tracer) selfTimes() map[string]*selfTime {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*selfTime{}
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &selfTime{}
			out[s.Name] = st
		}
		st.Count++
		st.Total += s.End - s.Start
		st.Self += s.End - s.Start - child[i]
	}
	return out
}

func (t *tracer) printSelfTimes(w io.Writer) {
	st := t.selfTimes()
	names := sortedKeys(st)
	sort.SliceStable(names, func(i, j int) bool { return st[names[i]].Self > st[names[j]].Self })
	fmt.Fprintf(w, "# %-40s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		fmt.Fprintf(w, "# %-40s %8d %12.2f %12.2f\n", n, st[n].Count, st[n].Total, st[n].Self)
	}
}
