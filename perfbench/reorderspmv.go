package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"sparseorder/internal/gen"
	"sparseorder/internal/reorder"
	"sparseorder/internal/sparse"
	"sparseorder/internal/spmv"
)

// kernels are the host SpMV kernels timed on every ordering.
var kernels = []string{"serial", "1d", "2d", "merge"}

// kernelRounds is the number of timed rounds; a round calls every kernel
// once on every ordering of every matrix, after kernelWarmup untimed
// calls per cell. The set-up (generating the matrices) runs rsSetups
// times; setup_s is the median.
const (
	kernelRounds = 40
	kernelWarmup = 2
	rsSetups     = 5
)

// reorderSpMVMatrices builds the workload's three matrices: a scrambled
// 3-D grid, a scrambled random geometric graph whose kernel working set
// exceeds the host's summed L2, and an R-MAT power-law graph. All have
// more than 4096 vertices, so AMD takes its multiple-elimination path.
func reorderSpMVMatrices(seed int64) []gen.Matrix {
	const geoN, geoDeg = 48000, 16.0
	radius := math.Sqrt(geoDeg / (math.Pi * geoN))
	return []gen.Matrix{
		{Name: "grid3d_24_perm", A: gen.Scramble(gen.Grid3D(24, 24, 24), seed+1)},
		{Name: "geometric_48k_perm", A: gen.Scramble(gen.RandomGeometric(geoN, radius, seed+2), seed+3)},
		{Name: "rmat_14", A: gen.RMAT(14, 16, seed+4)},
	}
}

func runReorderSpMV(e *env) error {
	threads := runtime.GOMAXPROCS(0)
	var setups []float64
	var ms []gen.Matrix
	for i := 0; i < rsSetups; i++ {
		ms = nil
		runtime.GC() // each set-up starts from a collected heap
		c0 := processCPU()
		ms = reorderSpMVMatrices(e.seed)
		setups = append(setups, processCPU()-c0)
	}
	e.e2e["setup_s"] = median(setups)
	e.rec.Config["setup_cpu_seconds"] = setups
	for _, m := range ms {
		e.rec.Matrices = append(e.rec.Matrices, matrixInfo{Name: m.Name, Rows: m.A.Rows, NNZ: m.A.NNZ(),
			WorkingSetBytes: workingSet(m.A.Rows, m.A.Cols, m.A.NNZ())})
	}
	e.rec.Config["orderings"] = "Original, RCM, AMD, ND, GP, Gray (HP takes about 60 s at 1.2M nnz; it is measured in the study workload)"
	e.rec.Config["workers"] = threads
	e.rec.Config["parts"] = threads
	e.rec.Config["threads"] = threads
	e.rec.Config["kernel_rounds"] = kernelRounds
	e.rec.Config["tolerance"] = relTol

	// The untraced pass gives the end-to-end metrics; a traced run then
	// repeats the same work with spans for the per-layer metrics.
	p, err := reorderSpMVPass(e, ms, threads, nil)
	if err != nil {
		return err
	}
	e.e2e["op_cpu_ms"] = median(p.roundsCPU) * 1e3
	e.e2e["batch_cpu_s"] = p.orderCPU
	e.e2e["peak_rss_mb"] = selfPeakRSSMiB()
	q := tailQuantile(len(p.rounds))
	e.rec.Config["op"] = "one round: every kernel called once on every ordering of every matrix; op_cpu_ms is the median round's process CPU time"
	e.rec.Config["op_tail_percentile"] = pctName(q)
	e.rec.Config["op_samples"] = len(p.rounds)
	e.rec.Config["batch"] = "computing every ordering of the three matrices (Table 5 cost); batch_cpu_s is its process CPU time"
	e.rec.Named["reorder_s"] = p.orderWall
	e.rec.Named["reorder_cpu_s"] = p.orderCPU
	e.rec.Named["round_p50_ms"] = median(p.rounds) * 1e3
	e.rec.Named["round_"+pctName(q)+"_ms"] = quantile(p.rounds, q) * 1e3
	for _, k := range kernels {
		e.rec.Named["kernel_gflops_"+k] = spmv.Gflops(p.kernelNNZ[k], p.kernelSec[k])
	}
	if !e.trace {
		return nil
	}
	e.layers["wall.op_p50_ms"] = median(p.rounds) * 1e3
	e.layers["wall.op_tail_ms"] = quantile(p.rounds, q) * 1e3
	e.layers["wall.batch_s"] = p.orderWall
	tr := newTracer(processCPU)
	tp, err := reorderSpMVPass(e, ms, threads, tr)
	if err != nil {
		return err
	}
	tp.layers(e, tr, p)
	return tr.write(e.traceDir, "reorder-spmv.spans.jsonl")
}

// rsPass is one pass over the workload: every ordering of every matrix,
// then rounds of every kernel on every ordering. CPU times are process
// CPU seconds.
type rsPass struct {
	orderWall, orderCPU float64        // summed over the ApplyTimedCtx calls
	rounds, roundsCPU   []float64      // round i's wall and CPU time
	kernelNNZ           map[string]int // Σ nnz over timed calls, per kernel
	kernelSec           map[string]float64
	cellNNZ             map[string]int // per "kernel.ordering"
	cellSec             map[string]float64
	cellBytes           map[string]int64 // computed bytes moved, per kernel
	imbMax              map[string]float64
	imbMean             map[string]float64
	planUS              []float64
}

// rsCell is one ordering of one matrix, ready for the kernels.
type rsCell struct {
	mname string
	alg   reorder.Algorithm
	b     *sparse.CSR
	perm  sparse.Perm
	xb, y []float64
	ref   *reference
	run   map[string]func() error
}

func reorderSpMVPass(e *env, ms []gen.Matrix, threads int, tr *tracer) (*rsPass, error) {
	p := &rsPass{
		kernelNNZ: map[string]int{}, kernelSec: map[string]float64{},
		cellNNZ: map[string]int{}, cellSec: map[string]float64{}, cellBytes: map[string]int64{},
		imbMax: map[string]float64{}, imbMean: map[string]float64{},
	}
	var cells []*rsCell
	for mi, m := range ms {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		x := randomVector(m.A.Cols, e.seed*31+int64(mi))
		var ref *reference
		var err error
		tr.do("bench.verify", -1, 0, func(int) { ref, err = newReference(m.A, x) })
		if err != nil {
			return nil, err
		}
		cells = append(cells, &rsCell{mname: m.Name, alg: reorder.Original, b: m.A, perm: sparse.Identity(m.A.Rows), xb: x, ref: ref})
		for _, alg := range reorder.AllOrderings {
			if alg == reorder.Original || alg == reorder.HP {
				continue
			}
			var b *sparse.CSR
			var perm sparse.Perm
			var ph reorder.PhaseTimings
			t0 := time.Now()
			wall, cpu := tr.do("reorder.call", -1, 0, func(idx int) {
				b, perm, ph, err = reorder.ApplyTimedCtx(e.ctx, alg, m.A,
					reorder.Options{Workers: threads, Parts: threads, Seed: e.seed})
				addPhases(tr, idx, 0, alg, t0, ph)
			})
			p.orderWall += wall
			p.orderCPU += cpu
			e.attempted++
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", m.Name, alg, err)
			}
			tr.do("bench.verify", -1, 0, func(int) { err = perm.Validate() })
			if err != nil {
				e.failed++
				e.fail("%s %s: invalid permutation: %v", m.Name, alg, err)
				continue
			}
			xb := x
			if alg.Symmetric() {
				xb = make([]float64, len(x))
				for i, q := range perm {
					xb[i] = x[q]
				}
			}
			cells = append(cells, &rsCell{mname: m.Name, alg: alg, b: b, perm: perm, xb: xb, ref: ref})
		}
	}
	for _, c := range cells {
		if err := p.prepare(e, c, threads, tr); err != nil {
			return nil, err
		}
	}
	// Kernel rounds: each round calls every kernel once on every cell, so
	// each cell's calls are spread over the whole phase.
	for r := 0; r < kernelRounds; r++ {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		var wall, cpu float64
		for _, c := range cells {
			w, u, err := p.callKernels(e, c, tr)
			if err != nil {
				return nil, err
			}
			wall += w
			cpu += u
		}
		p.rounds = append(p.rounds, wall)
		p.roundsCPU = append(p.roundsCPU, cpu)
	}
	return p, nil
}

// addPhases records the ordering's own phase split (graph build, ordering,
// permutation) as child spans of the benchmark's span around the call.
// The library reports the phases in wall time only, so each phase is
// charged the call's CPU time in proportion to its wall time.
func addPhases(tr *tracer, parent, lane int, alg reorder.Algorithm, t0 time.Time, ph reorder.PhaseTimings) {
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	tr.add("graph.build", parent, lane, t0, sec(ph.GraphSeconds), true)
	tr.add("reorder."+strings.ToLower(string(alg)), parent, lane, t0, sec(ph.OrderSeconds), true)
	tr.add("sparse.permute", parent, lane, t0, sec(ph.PermuteSeconds), true)
}

// prepare builds a cell's 2D and merge plans, records the 1D and 2D
// thread imbalance, and warms every kernel up.
func (p *rsPass) prepare(e *env, c *rsCell, threads int, tr *tracer) error {
	ord := strings.ToLower(string(c.alg))
	var plan2 *spmv.Plan2D
	var planM *spmv.PlanMerge
	var err error
	_, cpu := tr.do("spmv.plan_build", -1, 0, func(int) { plan2, err = spmv.NewPlan2D(c.b, threads) })
	if err != nil {
		return err
	}
	p.planUS = append(p.planUS, cpu*1e6)
	_, cpu = tr.do("spmv.plan_build", -1, 0, func(int) { planM, err = spmv.NewPlanMerge(c.b, threads) })
	if err != nil {
		return err
	}
	p.planUS = append(p.planUS, cpu*1e6)

	for _, k := range []struct {
		k   string
		nnz []int
	}{{"1d", spmv.ThreadNNZ1D(c.b, threads)}, {"2d", plan2.ThreadNNZ()}} {
		key := k.k + "." + ord
		p.imbMax[key] += float64(maxInt(k.nnz))
		p.imbMean[key] += float64(c.b.NNZ()) / float64(threads)
	}

	c.y = make([]float64, c.b.Rows)
	c.run = map[string]func() error{
		"serial": func() error { return spmv.Serial(c.b, c.xb, c.y) },
		"1d":     func() error { return spmv.Mul1D(c.b, c.xb, c.y, threads) },
		"2d":     func() error { return spmv.Mul2D(c.b, c.xb, c.y, plan2) },
		"merge":  func() error { return spmv.MulMerge(c.b, c.xb, c.y, planM) },
	}
	for _, k := range kernels {
		for i := 0; i < kernelWarmup; i++ {
			if err := c.run[k](); err != nil {
				return fmt.Errorf("%s %s %s: %w", c.mname, c.alg, k, err)
			}
		}
	}
	return nil
}

// callKernels calls every kernel once on a cell, timing each call and
// checking its result against the serial product on the original matrix.
func (p *rsPass) callKernels(e *env, c *rsCell, tr *tracer) (wall, cpu float64, err error) {
	ord := strings.ToLower(string(c.alg))
	for _, k := range kernels {
		e.attempted++
		d, u := tr.do("spmv.kernel."+k, -1, 0, func(int) { err = c.run[k]() })
		if err != nil {
			return 0, 0, fmt.Errorf("%s %s %s: %w", c.mname, c.alg, k, err)
		}
		wall += d
		cpu += u
		nnz := c.b.NNZ()
		p.kernelNNZ[k] += nnz
		p.kernelSec[k] += d
		p.cellNNZ[k+"."+ord] += nnz
		p.cellSec[k+"."+ord] += d
		p.cellBytes[k] += workingSet(c.b.Rows, c.b.Cols, nnz)
		var cerr error
		tr.do("bench.verify", -1, 0, func(int) { cerr = c.ref.checkPermuted(c.y, c.perm) })
		if cerr != nil {
			e.failed++
			e.fail("%s %s %s: %v", c.mname, c.alg, k, cerr)
		}
	}
	return wall, cpu, nil
}

// layers turns the traced pass into the per-layer metrics and attributes
// the CPU time behind the gated metrics: the orderings' (batch_cpu_s) and
// the kernel rounds' (op_cpu_ms). base is the untraced pass of the same
// work. Layer times are CPU seconds, except the Gflop/s cells, which are
// wall-clock throughput as the paper reports it.
func (p *rsPass) layers(e *env, tr *tracer, base *rsPass) {
	_, self := tr.selfTimes()
	l := e.layers
	ordering := map[string]float64{}
	for _, n := range []string{"graph.build", "sparse.permute"} {
		ordering[n] = self[n]
	}
	for _, alg := range reorder.Algorithms {
		n := "reorder." + strings.ToLower(string(alg))
		l[n+"_s"] = self[n]
		if alg != reorder.HP {
			ordering[n] = self[n]
		}
	}
	l["graph.build_s"] = self["graph.build"]
	l["sparse.permute_s"] = self["sparse.permute"]
	l["spmv.plan_build_us"] = mean(p.planUS)
	l["bench.verify_s"] = self["bench.verify"]
	kernel := map[string]float64{}
	for _, k := range kernels {
		n := "spmv.kernel." + k
		kernel[n] = self[n]
		l["spmv.kernel_s"] += self[n]
		for _, alg := range reorder.AllOrderings {
			if alg == reorder.HP {
				continue
			}
			cell := k + "." + strings.ToLower(string(alg))
			l["spmv.gflops."+cell] = spmv.Gflops(p.cellNNZ[cell], p.cellSec[cell])
		}
		l["spmv.computed_gbs."+k] = float64(p.cellBytes[k]) / p.kernelSec[k] / 1e9
	}
	for key, mx := range p.imbMax {
		l["spmv.imbalance."+key] = mx / p.imbMean[key]
	}
	e.addAttribution(newAttribution("batch_cpu_s", base.orderCPU, "cpu s",
		"batch_cpu_s is the untraced pass's process CPU time over every ApplyTimedCtx call (the total); layers are the traced pass's graph build, ordering and permutation, the phases ApplyTimedCtx reports in wall time, each charged its call's CPU time in proportion",
		base.orderCPU, p.orderCPU, ordering))
	e.addAttribution(newAttribution("op_cpu_ms", median(base.roundsCPU), "cpu s",
		"op_cpu_ms is the median of the untraced pass's kernel rounds' process CPU time (gated_value in s); the total is the sum of the rounds, the layers the traced pass's CPU time per kernel",
		sum(base.roundsCPU), sum(p.roundsCPU), kernel))
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
