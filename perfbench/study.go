package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"sparseorder/internal/cholesky"
	"sparseorder/internal/experiments"
	"sparseorder/internal/gen"
	"sparseorder/internal/machine"
	"sparseorder/internal/metrics"
	"sparseorder/internal/reorder"
	"sparseorder/internal/sparse"
)

// studyFeatureBlocks is the block and thread count the study computes
// features with (the paper's HP partition count). The set-up (generating
// the collection) runs studySetups times; setup_s is the median.
const (
	studyFeatureBlocks = 128
	studySetups        = 15
)

func runStudy(e *env) error {
	workers := runtime.GOMAXPROCS(0)
	var setups []float64
	var coll []gen.Matrix
	for i := 0; i < studySetups; i++ {
		coll = nil
		runtime.GC() // each set-up starts from a collected heap
		c0 := processCPU()
		coll = gen.Collection(gen.ScaleTest, e.seed)
		setups = append(setups, processCPU()-c0)
	}
	e.e2e["setup_s"] = median(setups)
	e.rec.Config["setup_cpu_seconds"] = setups
	e.rec.Config["scale"] = gen.ScaleTest.String()
	e.rec.Config["matrices"] = len(coll)
	e.rec.Config["orderings"] = reorder.AllOrderings
	e.rec.Config["machines"] = len(machine.Table2)
	e.rec.Config["workers"] = workers
	e.rec.Config["op"] = "one matrix's evaluation inside RunStudy; op_cpu_ms is RunStudy's process CPU time per matrix (the workers' CPU cannot be told apart per matrix)"
	e.rec.Config["batch"] = "one experiments.RunStudy over the collection; batch_cpu_s is its process CPU time"

	// The study as users run it: the collection through the runner with
	// Workers = GOMAXPROCS. The progress hook timestamps each matrix's
	// start and end, which gives the per-matrix latencies.
	var mu sync.Mutex
	begun := map[string]time.Time{}
	var perMatrix []float64
	cfg := experiments.Config{
		Scale: gen.ScaleTest, Seed: e.seed, Workers: workers,
		Logf: func(format string, args ...any) {
			now := time.Now()
			mu.Lock()
			defer mu.Unlock()
			switch {
			case strings.HasPrefix(format, "evaluating ") && len(args) > 0:
				begun[fmt.Sprint(args[0])] = now
			case strings.Contains(format, " done (") && len(args) > 2:
				if t, ok := begun[fmt.Sprint(args[2])]; ok {
					perMatrix = append(perMatrix, now.Sub(t).Seconds())
				}
			}
		},
	}
	start, cpu0 := time.Now(), processCPU()
	res, err := experiments.RunStudyMatrices(e.ctx, cfg, coll)
	studyWall, studyCPU := time.Since(start).Seconds(), processCPU()-cpu0
	if err != nil {
		return fmt.Errorf("RunStudy: %w", err)
	}
	e.attempted += len(coll)
	e.failed += len(res.Failures)
	for _, f := range res.Failures {
		e.fail("matrix %s failed: %v", f.Name, f.Err)
	}
	if len(perMatrix) != len(res.Matrices) {
		return fmt.Errorf("progress hook saw %d matrices, study returned %d", len(perMatrix), len(res.Matrices))
	}

	// Oracle: the model-based outputs (Perf, Features, FillRatio) hash
	// identically when recomputed, and the findings checklist holds.
	// Findings 1, 3 and 4 are computed from the model alone and held on
	// every seed tried, so a [DIFF] there means a worse or wrong ordering
	// and fails the run. Two model-based claims about GP do not hold on
	// some seeds of the synthetic collection although every output is
	// computed correctly: finding 2 (GP has the best 1D geomean) on seeds
	// 2, 10, 17, 203, 205, 210, 301 and 12345 of those tried, finding 5
	// (GP dominates the Fig. 5 profiles) on seed 17. Finding 6 compares
	// host wall-clock ordering costs. A [DIFF] on 2, 5 or 6 is recorded
	// only.
	findings, err := experiments.RenderFindings(res)
	if err != nil {
		return fmt.Errorf("RenderFindings: %w", err)
	}
	e.attempted++
	gated := false
	for _, line := range strings.Split(findings, "\n") {
		if !strings.HasPrefix(line, "[DIFF]") {
			continue
		}
		if strings.HasPrefix(line, "[DIFF] 2.") || strings.HasPrefix(line, "[DIFF] 5.") || strings.HasPrefix(line, "[DIFF] 6.") {
			e.rec.Notes = append(e.rec.Notes, "findings checklist (recorded only): "+line)
			fmt.Fprintf(os.Stderr, "perfbench: study: findings checklist (recorded only): %s\n", line)
			continue
		}
		gated = true
		e.fail("findings checklist: %s", line)
	}
	if gated {
		e.failed++
	}
	digest := modelDigest(res.Matrices)
	e.rec.Config["model_output_sha256"] = digest

	q := tailQuantile(len(perMatrix))
	e.e2e["op_cpu_ms"] = studyCPU / float64(len(res.Matrices)) * 1e3
	e.e2e["batch_cpu_s"] = studyCPU
	e.e2e["peak_rss_mb"] = selfPeakRSSMiB()
	e.rec.Config["op_tail_percentile"] = pctName(q)
	e.rec.Config["op_samples"] = len(perMatrix)
	e.rec.Config["op_latencies_ms"] = sortedMs(perMatrix)
	e.rec.Named["study_s"] = studyWall
	e.rec.Named["study_cpu_s"] = studyCPU
	e.rec.Named["matrix_p50_ms"] = quantile(perMatrix, 0.5) * 1e3
	e.rec.Named["matrix_"+pctName(q)+"_ms"] = quantile(perMatrix, q) * 1e3

	if e.trace {
		e.layers["wall.op_p50_ms"] = quantile(perMatrix, 0.5) * 1e3
		e.layers["wall.op_tail_ms"] = quantile(perMatrix, q) * 1e3
		e.layers["wall.batch_s"] = studyWall
		return studyTraced(e, coll, res, studyCPU, workers)
	}
	// Untraced: recompute the two cheapest matrices serially and compare
	// their model outputs with the runner's.
	return studyCrossCheck(e, coll, res, cfg)
}

func sortedMs(secs []float64) []float64 {
	ms := make([]float64, len(secs))
	for i, s := range secs {
		ms[i] = math.Round(s*1e4) / 10
	}
	sort.Float64s(ms)
	return ms
}

// modelDigest hashes the deterministic, model-based study outputs; host
// wall-clock fields (ReorderSeconds, ReorderPhases) are left out.
func modelDigest(rs []*experiments.MatrixResult) string {
	h := sha256.New()
	for _, r := range rs {
		b, err := json.Marshal(struct {
			Name      string
			Perf      any
			Features  any
			FillRatio any
		}{r.Name, r.Perf, r.Features, r.FillRatio})
		if err != nil {
			panic(err) // plain maps of numbers always marshal
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// studyCrossCheck re-evaluates the two smallest matrices on their own and
// requires the runner's results for them to hash identically.
func studyCrossCheck(e *env, coll []gen.Matrix, res *experiments.StudyResult, cfg experiments.Config) error {
	idx := make([]int, len(coll))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return coll[idx[a]].A.NNZ() < coll[idx[b]].A.NNZ() })
	byName := map[string]*experiments.MatrixResult{}
	for _, r := range res.Matrices {
		byName[r.Name] = r
	}
	cfg.Logf = nil
	for _, i := range idx[:2] {
		m := coll[i]
		again, err := experiments.EvaluateMatrixContext(e.ctx, m, cfg)
		if err != nil {
			return fmt.Errorf("re-evaluate %s: %w", m.Name, err)
		}
		e.attempted++
		r, ok := byName[m.Name]
		if !ok || modelDigest([]*experiments.MatrixResult{r}) != modelDigest([]*experiments.MatrixResult{again}) {
			e.failed++
			e.fail("model outputs of %s differ between RunStudy and a lone re-evaluation", m.Name)
		}
	}
	return nil
}

// studyTraced replays the runner's per-matrix pipeline from the
// benchmark, one span around each public entry point the runner calls,
// on the same number of lanes, and attributes the untraced RunStudy CPU
// time to the layers. Each lane is locked to its thread and its spans
// read that thread's CPU clock, so a layer's share is its self CPU time
// summed over lanes; the residual is the rest (runner overhead, the
// garbage collector's own threads).
func studyTraced(e *env, coll []gen.Matrix, res *experiments.StudyResult, studyCPU float64, lanes int) error {
	tr := newTracer(threadCPU)
	replayed := make([]*experiments.MatrixResult, len(coll))
	errs := make([]error, len(coll))
	var next sync.Mutex
	n := 0
	cpu0 := processCPU()
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for {
				next.Lock()
				i := n
				n++
				next.Unlock()
				if i >= len(coll) || e.ctx.Err() != nil {
					return
				}
				replayed[i], errs[i] = replayMatrix(e.ctx, tr, lane, coll[i], e.seed)
			}
		}(lane)
	}
	wg.Wait()
	replayCPU := processCPU() - cpu0
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("replay %s: %w", coll[i].Name, err)
		}
	}
	e.attempted++
	if modelDigest(replayed) != modelDigest(res.Matrices) {
		e.failed++
		e.fail("model outputs of the traced replay differ from RunStudy's")
	}

	_, self := tr.selfTimes()
	layerNames := []string{"graph.build", "sparse.permute", "metrics.features", "machine.estimate", "cholesky.fill"}
	for _, alg := range reorder.Algorithms {
		layerNames = append(layerNames, "reorder."+strings.ToLower(string(alg)))
	}
	attributed := map[string]float64{}
	for _, name := range layerNames {
		attributed[name] = self[name]
		e.layers[name+"_s"] = attributed[name]
	}
	a := newAttribution("batch_cpu_s", studyCPU, "cpu s",
		"batch_cpu_s is the untraced RunStudy's process CPU time (the total); layer shares are self CPU times from a traced replay on the same number of lanes, each lane locked to its thread and read from that thread's CPU clock, summed over lanes; the traced total is the replay's process CPU time",
		studyCPU, replayCPU, attributed)
	e.addAttribution(a)
	e.layers["experiments.residual_s"] = a.Residual
	return tr.write(e.traceDir, "study.spans.jsonl")
}

// replayMatrix is experiments.EvaluateMatrixContext's pipeline rebuilt
// from the layers' public entry points, with a span around each call.
func replayMatrix(ctx context.Context, tr *tracer, lane int, m gen.Matrix, seed int64) (*experiments.MatrixResult, error) {
	res := &experiments.MatrixResult{
		Name: m.Name, Group: m.Group, Kind: m.Kind, Rows: m.A.Rows, NNZ: m.A.NNZ(), SPD: m.SPD,
		Perf:      map[string]map[machine.Kernel]map[reorder.Algorithm]experiments.Measurement{},
		Features:  map[reorder.Algorithm]metrics.Features{},
		FillRatio: map[reorder.Algorithm]float64{},
	}
	for _, mc := range machine.Table2 {
		res.Perf[mc.Name] = map[machine.Kernel]map[reorder.Algorithm]experiments.Measurement{
			machine.Kernel1D: {}, machine.Kernel2D: {},
		}
	}
	estimate := func(alg reorder.Algorithm, b *sparse.CSR, ms []machine.Machine) {
		tr.do("machine.estimate", -1, lane, func(int) {
			for _, mc := range ms {
				for _, k := range []machine.Kernel{machine.Kernel1D, machine.Kernel2D} {
					est := machine.EstimateSpMV(b, mc, k)
					minN, maxN := est.ThreadNNZ[0], est.ThreadNNZ[0]
					for _, v := range est.ThreadNNZ {
						minN, maxN = min(minN, v), max(maxN, v)
					}
					res.Perf[mc.Name][k][alg] = experiments.Measurement{
						MinNNZ: minN, MaxNNZ: maxN, MeanNNZ: float64(b.NNZ()) / float64(mc.Cores),
						Imbalance: est.Imbalance, Seconds: est.Seconds, Gflops: est.Gflops,
					}
				}
			}
		})
	}
	features := func(alg reorder.Algorithm, b *sparse.CSR) {
		tr.do("metrics.features", -1, lane, func(int) {
			res.Features[alg] = metrics.ComputeWorkers(b, studyFeatureBlocks, studyFeatureBlocks, 1)
		})
	}
	fill := func(alg reorder.Algorithm, b *sparse.CSR) {
		tr.do("cholesky.fill", -1, lane, func(int) {
			if fr, err := cholesky.FillRatio(b); err == nil {
				res.FillRatio[alg] = fr
			}
		})
	}

	estimate(reorder.Original, m.A, machine.Table2)
	features(reorder.Original, m.A)
	if m.SPD {
		fill(reorder.Original, m.A)
	}
	for _, alg := range reorder.Algorithms {
		if alg == reorder.GP {
			parts := map[int]sparse.Perm{}
			largest := 0
			for _, mc := range machine.Table2 {
				p, ok := parts[mc.Cores]
				if !ok {
					var ph reorder.PhaseTimings
					var err error
					t0 := time.Now()
					tr.do("reorder.call", -1, lane, func(idx int) {
						p, ph, err = reorder.ComputeTimedCtx(ctx, reorder.GP, m.A,
							reorder.Options{Seed: seed, Parts: mc.Cores, Workers: 1})
						addPhases(tr, idx, lane, reorder.GP, t0, ph)
					})
					if err != nil {
						return nil, err
					}
					parts[mc.Cores] = p
				}
				largest = max(largest, mc.Cores)
				b, err := permute(tr, lane, m.A, p)
				if err != nil {
					return nil, err
				}
				estimate(alg, b, []machine.Machine{mc})
			}
			b, err := permute(tr, lane, m.A, parts[largest])
			if err != nil {
				return nil, err
			}
			features(alg, b)
			if m.SPD {
				fill(alg, b)
			}
			continue
		}
		var b *sparse.CSR
		var ph reorder.PhaseTimings
		var err error
		t0 := time.Now()
		tr.do("reorder.call", -1, lane, func(idx int) {
			b, _, ph, err = reorder.ApplyTimedCtx(ctx, alg, m.A, reorder.Options{Seed: seed, Workers: 1})
			addPhases(tr, idx, lane, alg, t0, ph)
		})
		if err != nil {
			return nil, err
		}
		estimate(alg, b, machine.Table2)
		features(alg, b)
		if m.SPD && alg.Symmetric() {
			fill(alg, b)
		}
	}
	return res, nil
}

func permute(tr *tracer, lane int, a *sparse.CSR, p sparse.Perm) (*sparse.CSR, error) {
	var b *sparse.CSR
	var err error
	tr.do("sparse.permute", -1, lane, func(int) { b, err = sparse.PermuteSymmetricWorkers(a, p, 1) })
	return b, err
}
