package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// stampEnv describes where and on what a run was measured, so results
// from different machines or commits are never compared blindly.
func stampEnv(o options) string {
	env := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"commit":     commit(),
		"source":     sourceDigest("."),
	}
	buf, _ := json.Marshal(env) // strings and numbers only
	return string(buf)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// saw one (a plain source checkout has none).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceDigest hashes the program's Go sources and go.mod under root,
// identifying the measured code even where no VCS metadata exists. The
// benchmark's own directory and build outputs are excluded.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "perfbench":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// totalAllocMB is the process's cumulative heap allocation in MB.
func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// peakRSS measures the high-water RSS of one process over an interval:
// start resets the kernel's VmHWM counter to the current RSS (writing 5
// to /proc/<pid>/clear_refs), and stop reads VmHWM, so the peak is exact
// rather than sampled.
type peakRSS struct{ pid string }

func startPeakRSS(pid int) (peakRSS, error) {
	p := peakRSS{strconv.Itoa(pid)}
	return p, os.WriteFile("/proc/"+p.pid+"/clear_refs", []byte("5"), 0)
}

// stop returns the peak RSS since start in MB.
func (p peakRSS) stop() (float64, error) {
	buf, err := os.ReadFile("/proc/" + p.pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/" + p.pid + "/status")
}

// stealMeter measures the share of CPU time the hypervisor gave to other
// guests over an interval. It is printed beside the results: on a shared
// virtual machine it explains runs that are slow as a whole.
type stealMeter struct{ steal, total uint64 }

func cpuTicks() (steal, total uint64, err error) {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, errors.New("unexpected /proc/stat format")
	}
	for i, f := range fields[1:9] { // user .. steal
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

func startSteal() stealMeter {
	s, t, _ := cpuTicks() // without /proc/stat the share reads 0
	return stealMeter{s, t}
}

// percent returns the steal share since start.
func (m stealMeter) percent() float64 {
	s, t, err := cpuTicks()
	if err != nil || t <= m.total {
		return 0
	}
	return 100 * float64(s-m.steal) / float64(t-m.total)
}
