package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"sparseorder/internal/gen"
	"sparseorder/internal/obs"
	"sparseorder/internal/reorder"
	"sparseorder/internal/server"
	"sparseorder/internal/sparse"
)

// ObsBench is the observability-overhead measurement committed as
// BENCH_obs.json. It quantifies the layer's two cost regimes:
//
//   - Micro: the per-call cost of the instrumentation primitives, both on
//     the disabled path (no Obs attached — this is what every plain run
//     pays) and with a live metrics registry. The disabled path must be
//     allocation-free.
//   - Pipeline: best-of wall clock of the full instrumented reordering
//     pipeline (the PR 2 benchmark's combined path driven through
//     ApplyTimedCtx) with no sinks versus with a live registry. The
//     no-sink run is the regression-budget number: the instrumentation
//     call sites are compiled in but resolve to nil and must stay within
//     1% of the uninstrumented pipeline, which the micro numbers bound
//     (a handful of nanoseconds per span against milliseconds of work).
//   - Serving: one warm SpMV request through the daemon's handler with
//     telemetry nil / metrics-only / metrics+tracing (runServingBench).
//     The nilobs row is the request-path equivalent of the no-sink
//     pipeline budget.
type ObsBench struct {
	HostCPUs   int              `json:"host_cpus"`
	GoMaxProcs int              `json:"gomaxprocs"`
	Repeats    int              `json:"repeats"` // pipeline best-of count
	Micro      []ObsMicroResult `json:"micro"`
	Pipeline   []ObsPipelineRun `json:"pipeline"`
	Serving    []ObsMicroResult `json:"serving,omitempty"`
}

// ObsMicroResult is one primitive's per-operation cost, measured with
// testing.Benchmark.
type ObsMicroResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// ObsPipelineRun is one (mode, ordering) pipeline measurement. Overhead
// is this run's time relative to the same ordering's nosink run, in
// percent (nosink rows carry 0).
type ObsPipelineRun struct {
	Mode        string  `json:"mode"` // nosink, metrics
	Ordering    string  `json:"ordering"`
	Seconds     float64 `json:"seconds"`
	OverheadPct float64 `json:"overhead_pct"`
}

// RunObsBench measures the observability layer's overhead. The micro
// section uses testing.Benchmark and therefore self-calibrates; repeats
// only controls the pipeline best-of count.
func RunObsBench(seed int64, repeats int) (*ObsBench, error) {
	if repeats < 1 {
		repeats = 1
	}
	out := &ObsBench{
		HostCPUs:   runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Repeats:    repeats,
	}

	// Micro: disabled primitives against a context with no Obs attached
	// (the plain-run fast path), then the same primitives with a live
	// registry for contrast.
	bg := context.Background()
	live := &obs.Obs{Metrics: obs.NewRegistry(), Progress: obs.NewProgress()}
	lctx := obs.NewContext(bg, live)
	ph := live.Phase("bench/phase")
	var nilPh obs.Phase
	micros := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"span_disabled", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, sp := obs.Start(bg, "bench/span")
				sp.End()
			}
		}},
		{"phase_disabled", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nilPh.Start().Stop()
			}
		}},
		{"span_enabled", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, sp := obs.Start(lctx, "bench/span")
				sp.End()
			}
		}},
		{"phase_enabled", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ph.Start().Stop()
			}
		}},
	}
	for _, m := range micros {
		r := testing.Benchmark(m.fn)
		out.Micro = append(out.Micro, ObsMicroResult{
			Name:        m.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
		})
	}

	// Pipeline: the instrumented reordering pipeline end to end. RCM is
	// the PR 2 benchmark's hot path; GP additionally exercises the
	// partitioner Phase timings, the layer's highest-frequency call site.
	a := ReorderBenchMatrices(seed, gen.ScaleStudy)[0].A
	for _, alg := range []reorder.Algorithm{reorder.RCM, reorder.GP} {
		var nosink float64
		for _, mode := range []struct {
			name string
			ctx  context.Context
		}{
			{"nosink", bg},
			{"metrics", obs.NewContext(bg, &obs.Obs{Metrics: obs.NewRegistry()})},
		} {
			best := 0.0
			for it := 0; it < repeats; it++ {
				start := time.Now()
				if _, _, _, err := reorder.ApplyTimedCtx(mode.ctx, alg, a, reorder.Options{Seed: seed}); err != nil {
					return nil, fmt.Errorf("experiments: obs bench %s/%s: %v", alg, mode.name, err)
				}
				if el := time.Since(start).Seconds(); best == 0 || el < best {
					best = el
				}
			}
			r := ObsPipelineRun{Mode: mode.name, Ordering: string(alg), Seconds: best}
			if mode.name == "nosink" {
				nosink = best
			} else if nosink > 0 {
				r.OverheadPct = (best - nosink) / nosink * 100
			}
			out.Pipeline = append(out.Pipeline, r)
		}
	}
	serving, err := runServingBench()
	if err != nil {
		return nil, err
	}
	out.Serving = serving
	return out, nil
}

// runServingBench measures the serving path's instrumentation overhead:
// one warm SpMV request (cache hit, plan pooled) driven straight through
// the handler, in three telemetry modes:
//
//	serve_spmv_nilobs   cfg.Obs nil — instrumentation compiled in but
//	                    resolving to nil recorders (the disabled-path
//	                    contract extended to the request path)
//	serve_spmv_metrics  live registry: per-route latency, phase
//	                    histograms and status counters on pre-resolved
//	                    handles
//	serve_spmv_traced   metrics plus the request-trace ring and span —
//	                    everything cmd/serve enables by default
//
// The numbers include the HTTP mux, JSON decode/encode and the multiply
// itself, so the telemetry cost reads as the delta between modes, not the
// absolute.
func runServingBench() ([]ObsMicroResult, error) {
	a := gen.Banded(300, 4, 0.9, 1)
	var mm bytes.Buffer
	if err := sparse.WriteMatrixMarket(&mm, a); err != nil {
		return nil, fmt.Errorf("experiments: serving bench corpus: %v", err)
	}
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	body, err := json.Marshal(struct {
		X []float64 `json:"x"`
	}{x})
	if err != nil {
		return nil, err
	}

	modes := []struct {
		name string
		obs  func() *obs.Obs
	}{
		{"serve_spmv_nilobs", func() *obs.Obs { return nil }},
		{"serve_spmv_metrics", func() *obs.Obs {
			return &obs.Obs{Metrics: obs.NewRegistry()}
		}},
		{"serve_spmv_traced", func() *obs.Obs {
			return &obs.Obs{Metrics: obs.NewRegistry(), Requests: obs.NewTraceRing(obs.DefaultTraceCap)}
		}},
	}

	var out []ObsMicroResult
	for _, mode := range modes {
		srv, err := server.New(server.Config{Threads: 1, Obs: mode.obs()})
		if err != nil {
			return nil, err
		}
		h := srv.Handler()

		// Upload once; every benchmark iteration is then a warm cache hit.
		up := httptest.NewRecorder()
		h.ServeHTTP(up, httptest.NewRequest(http.MethodPost, "/matrices", bytes.NewReader(mm.Bytes())))
		if up.Code != http.StatusOK {
			return nil, fmt.Errorf("experiments: serving bench upload (%s): status %d: %s", mode.name, up.Code, up.Body.String())
		}
		var ur struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal(up.Body.Bytes(), &ur); err != nil {
			return nil, err
		}
		url := "/spmv/" + ur.Key

		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body)))
				if w.Code != http.StatusOK {
					b.Fatalf("spmv status %d: %s", w.Code, w.Body.String())
				}
			}
		})
		out = append(out, ObsMicroResult{
			Name:        mode.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
		})
	}
	return out, nil
}

// RenderObsBench formats an ObsBench as the indented JSON document
// committed as BENCH_obs.json.
func RenderObsBench(b *ObsBench) (string, error) {
	buf, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return "", err
	}
	return string(buf) + "\n", nil
}
