// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload for a fixed measurement window and prints, as the last
// line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 they are its per-layer metrics, timed from this package's
// own spans around calls into each layer's public entry point. The line
// before the result is a "record" object with the host, the
// configuration, the workload's named figures and the layer attribution.
//
// Workloads (see README.md for why each exists):
//
//	serve-warm    open-loop zipf SpMV against a warm cmd/serve daemon
//	serve-churn   the same daemon with a store and a cache smaller than
//	              the corpus; evicted keys are re-uploaded and retried
//	study         experiments.RunStudy at test scale
//	reorder-spmv  every ordering of three mid-size matrices, then the
//	              serial, 1D, 2D and merge kernels on each ordering
//
// Run it through run.py, which builds this package and cmd/serve first:
//
//	python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 12 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line the benchmark contract asks for.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spec is the part of BENCHMARK.json the benchmark checks itself against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// env is everything a workload needs: its inputs' seed, the measurement
// window, where to put scratch files, and the sinks it reports into.
type env struct {
	ctx      context.Context
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root
	scratch  string // per-run scratch directory under .bench_build
	serveBin string
	traceDir string // spans of traced runs are written here

	rec *record
	// e2e and layers collect the workload's metrics; run() keeps only
	// the set the trace flag selects.
	e2e    map[string]float64
	layers map[string]float64

	attempted int
	failed    int
	// wrong lists oracle violations; any makes the run incorrect.
	wrong []string
}

func (e *env) fail(format string, args ...any) {
	e.wrong = append(e.wrong, fmt.Sprintf(format, args...))
}

type workload func(*env) error

var workloads = map[string]workload{
	"serve-warm":   runServeWarm,
	"serve-churn":  runServeChurn,
	"study":        runStudy,
	"reorder-spmv": runReorderSpMV,
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 12, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	serveBin := flag.String("serve", ".bench_build/bin/serve", "cmd/serve binary for the serving workloads")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q\n", *name)
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	sp, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !sp.lists(*name) {
		fmt.Fprintf(os.Stderr, "perfbench: workload %q is not listed in BENCHMARK.json\n", *name)
		return 1
	}
	scratch, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: scratch dir: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e := &env{
		ctx: ctx, seed: *seed, seconds: *seconds, trace: *trace == 1,
		root: root, scratch: scratch, serveBin: *serveBin,
		traceDir: filepath.Join(root, ".bench_build", "traces"),
		e2e:      map[string]float64{}, layers: map[string]float64{},
	}
	e.rec = newRecord(*name, e)
	start, cpu0 := time.Now(), readCPUTicks()
	if err := w(e); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	e.rec.WallSeconds = time.Since(start).Seconds()
	e.rec.StealShare = stealShare(cpu0, readCPUTicks())

	want, got := sp.EndToEnd, e.e2e
	if e.trace {
		want, got = sp.PerLayer, e.layers
	}
	res := result{
		Correct:   len(e.wrong) == 0,
		Attempted: e.attempted,
		Failed:    e.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok && !e.trace {
			fmt.Fprintf(os.Stderr, "perfbench: %s: end-to-end metric %s not measured\n", *name, m.Name)
			return 1
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		delete(got, m.Name)
	}
	if len(got) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: metrics missing from BENCHMARK.json: %v\n", *name, sortedKeys(got))
		return 1
	}
	if res.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: nothing attempted\n", *name)
		return 1
	}
	e.rec.Wrong = e.wrong
	for _, msg := range e.wrong {
		fmt.Fprintf(os.Stderr, "perfbench: %s: WRONG: %s\n", *name, msg)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"record": e.rec}); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// loadSpec reads BENCHMARK.json; the metric names and units the benchmark
// reports are the ones listed there.
func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return nil, errors.New("benchmark spec lists no metrics")
	}
	return &sp, nil
}

func (sp *spec) lists(workload string) bool {
	for _, w := range sp.Workloads {
		if w.Name == workload {
			return true
		}
	}
	return false
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
