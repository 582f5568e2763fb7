package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// record is the self-describing line printed before the result: enough
// to tell two runs apart and to explain a number without rerunning.
type record struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Trace       bool    `json:"trace"`
	WallSeconds float64 `json:"wall_seconds"`
	// StealShare is the share of the machine's CPU time a hypervisor took
	// from this virtual machine during the run (steal in /proc/stat; 0
	// where unavailable). A run with a large share ran on fewer cycles
	// than the wall clock suggests.
	StealShare float64 `json:"host_steal_share"`
	Host       host    `json:"host"`
	// Source identifies the code measured: the git commit when the
	// checkout is a repository, else a digest of the Go sources.
	Source string `json:"source"`
	// Config holds the workload's fixed parameters (rates, sizes, daemon
	// flags).
	Config map[string]any `json:"config"`
	// Matrices lists each workload matrix with its kernel working set.
	Matrices []matrixInfo `json:"matrices,omitempty"`
	// Named holds the workload's figures under their conventional names
	// (spmv_p99_ms, reorder_s, ...).
	Named map[string]float64 `json:"named"`
	// Attribution splits, for each gated metric a traced run attributes,
	// the untraced total of the work behind it into layer self times and a
	// residual that sum to it exactly.
	Attribution []*attribution `json:"attribution,omitempty"`
	// Notes carries failed operations and findings recorded only.
	Notes []string `json:"notes,omitempty"`
	Wrong []string `json:"wrong,omitempty"`
}

type host struct {
	CPUs       int    `json:"host_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Caches lists each distinct cache level as size × instances, read
	// from sysfs ("unknown" where unavailable).
	L2 string `json:"l2"`
	L3 string `json:"l3"`
	// L2Bytes is the summed L2 across instances (0 if unknown).
	L2Bytes int64 `json:"l2_bytes"`
}

type matrixInfo struct {
	Name string `json:"name"`
	Rows int    `json:"rows"`
	NNZ  int    `json:"nnz"`
	// WorkingSetBytes is CSR (8-byte values, 4-byte column indices,
	// 4-byte row pointers) plus x and y: the bytes one SpMV touches.
	WorkingSetBytes int64  `json:"working_set_bytes"`
	Ordering        string `json:"ordering,omitempty"`
}

func workingSet(rows, cols, nnz int) int64 {
	return int64(nnz)*12 + int64(rows+1)*4 + int64(cols)*8 + int64(rows)*8
}

func newRecord(workload string, e *env) *record {
	return &record{
		Workload: workload, Seed: e.seed, Seconds: e.seconds, Trace: e.trace,
		Host:   hostInfo(),
		Source: sourceID(e.root),
		Config: map[string]any{},
		Named:  map[string]float64{},
	}
}

func hostInfo() host {
	h := host{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	h.L2, h.L2Bytes = cacheLevel(2)
	h.L3, _ = cacheLevel(3)
	return h
}

// cacheLevel reads the unified cache of the given level from sysfs and
// returns "<size> x <instances>" with the summed byte count.
func cacheLevel(level int) (string, int64) {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu[0-9]*/cache/index[0-9]*")
	seen := map[string]bool{}
	var size int64
	var n int
	for _, d := range dirs {
		if readTrim(filepath.Join(d, "level")) != strconv.Itoa(level) || readTrim(filepath.Join(d, "type")) == "Instruction" {
			continue
		}
		shared := readTrim(filepath.Join(d, "shared_cpu_list"))
		if seen[shared] {
			continue
		}
		seen[shared] = true
		s := parseCacheSize(readTrim(filepath.Join(d, "size")))
		if s == 0 {
			continue
		}
		size, n = s, n+1
	}
	if n == 0 {
		return "unknown", 0
	}
	return strconv.FormatInt(size>>10, 10) + " KiB x " + strconv.Itoa(n), size * int64(n)
}

func parseCacheSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return v * mult
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// sourceID names the measured code: the git commit if there is one, else
// a SHA-256 over every .go file and go.mod under the checkout root (the
// build output directory excluded).
func sourceID(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		return "git:" + strings.TrimSpace(string(out))
	}
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(rel))
		h.Write(b)
	}
	return "sources:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// readCPUTicks returns the aggregate "cpu" line of /proc/stat as tick
// counts (user, nice, system, idle, iowait, irq, softirq, steal, ...), or
// nil where it cannot be read.
func readCPUTicks() []int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	var ticks []int64
	for _, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil
		}
		ticks = append(ticks, v)
	}
	return ticks
}

// stealShare is the steal ticks' share of all ticks between two
// readCPUTicks readings. Guest ticks (fields 9 and 10) are already counted
// in user and nice, so only the first eight fields are summed.
func stealShare(before, after []int64) float64 {
	if len(before) < 8 || len(after) < 8 {
		return 0
	}
	var total int64
	for i := 0; i < 8; i++ {
		total += after[i] - before[i]
	}
	if total <= 0 {
		return 0
	}
	return float64(after[7]-before[7]) / float64(total)
}
