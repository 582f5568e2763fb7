// Benchmarks regenerating every table and figure of the paper (one
// Benchmark per experiment, per DESIGN.md's per-experiment index), plus
// kernel, reordering and ablation micro-benchmarks.
//
// The experiment benches share one study run (the dominant cost) through
// sync.Once and report headline values via b.ReportMetric, so
// `go test -bench=.` both regenerates and summarises the reproduction.
package sparseorder_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"sparseorder/internal/cholesky"
	"sparseorder/internal/experiments"
	"sparseorder/internal/gen"
	"sparseorder/internal/graph"
	"sparseorder/internal/machine"
	"sparseorder/internal/metrics"
	"sparseorder/internal/partition"
	"sparseorder/internal/reorder"
	"sparseorder/internal/sparse"
	"sparseorder/internal/spmv"
	"sparseorder/internal/stats"
)

var (
	studyOnce sync.Once
	studyRes  *experiments.StudyResult
	studyErr  error
)

func sharedStudy(b *testing.B) *experiments.StudyResult {
	b.Helper()
	studyOnce.Do(func() {
		studyRes, studyErr = experiments.RunStudy(experiments.Config{Scale: gen.ScaleTest, Seed: 42})
	})
	if studyErr != nil {
		b.Fatal(studyErr)
	}
	return studyRes
}

func geoOf(s *experiments.StudyResult, k machine.Kernel, alg reorder.Algorithm) float64 {
	var gs []float64
	for _, m := range s.Config.Machines {
		gs = append(gs, stats.GeoMean(s.Speedups(m.Name, k, alg)))
	}
	return stats.GeoMean(gs)
}

// BenchmarkFig1 regenerates Figure 1: RCM/ND/GP speedups for the three
// showcase matrices on Milan B and Ice Lake.
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RenderFig1(experiments.Config{Scale: gen.ScaleTest, Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2_1DSpeedups regenerates the Figure 2 box statistics and
// reports the median GP speedup on Milan B.
func BenchmarkFig2_1DSpeedups(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.RenderFig2(s)
	}
	b.ReportMetric(stats.Quantile(s.Speedups("Milan B", machine.Kernel1D, reorder.GP), 0.5), "GP-median-speedup")
}

// BenchmarkTable3 regenerates Table 3 and reports the all-machine GP and
// Gray geometric means (the paper's extremes: 1.205 and 0.757).
func BenchmarkTable3(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.RenderTable3(s)
	}
	b.ReportMetric(geoOf(s, machine.Kernel1D, reorder.GP), "GP-geomean")
	b.ReportMetric(geoOf(s, machine.Kernel1D, reorder.Gray), "Gray-geomean")
}

// BenchmarkFig3_2DSpeedups regenerates the Figure 3 box statistics.
func BenchmarkFig3_2DSpeedups(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.RenderFig3(s)
	}
	b.ReportMetric(stats.Quantile(s.Speedups("Hi1620", machine.Kernel2D, reorder.RCM), 0.5), "RCM-ARM-median")
}

// BenchmarkTable4 regenerates Table 4 (2D geometric means).
func BenchmarkTable4(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.RenderTable4(s)
	}
	b.ReportMetric(geoOf(s, machine.Kernel2D, reorder.GP), "GP-geomean")
}

// BenchmarkFig4 regenerates the Figure 4 per-class analysis.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RenderFig4(experiments.Config{Scale: gen.ScaleTest, Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 regenerates the Figure 5 performance profiles and reports
// the fraction of matrices for which GP attains the best off-diagonal
// count (the paper's ~0.65).
func BenchmarkFig5(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RenderFig5(s); err != nil {
			b.Fatal(err)
		}
	}
	p, err := experiments.Fig5Profiles(s)
	if err != nil {
		b.Fatal(err)
	}
	for i, alg := range reorder.AllOrderings {
		if alg == reorder.GP {
			b.ReportMetric(p["offdiag"][i].Value(1), "GP-best-offdiag-fraction")
		}
	}
}

// BenchmarkFig6 regenerates the Figure 6 Cholesky fill box statistics and
// reports the AMD median fill ratio.
func BenchmarkFig6(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.RenderFig6(s)
	}
	var xs []float64
	for _, r := range s.Matrices {
		if fr, ok := r.FillRatio[reorder.AMD]; ok {
			xs = append(xs, fr)
		}
	}
	b.ReportMetric(stats.Quantile(xs, 0.5), "AMD-median-fill")
}

// BenchmarkTable5_ReorderTime regenerates Table 5 (reordering overhead and
// break-even analysis) on the ten-matrix large set.
func BenchmarkTable5_ReorderTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable5(experiments.Config{Scale: gen.ScaleTest, Seed: 42, Repeats: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDenseCSRRef regenerates the §4.2 tall-skinny dense reference.
func BenchmarkDenseCSRRef(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.RenderDenseCSRRef(experiments.Config{Scale: gen.ScaleTest, Seed: 1, Repeats: 2})
	}
}

// --- Kernel micro-benchmarks -------------------------------------------

func BenchmarkSpMV1D(b *testing.B) {
	threads := runtime.GOMAXPROCS(0)
	a := gen.Scramble(gen.Grid2D(120, 120), 1)
	x := make([]float64, a.Cols)
	y := make([]float64, a.Rows)
	for i := range x {
		x[i] = 1
	}
	b.SetBytes(int64(12 * a.NNZ()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spmv.Mul1D(a, x, y, threads)
	}
}

func BenchmarkSpMV2D(b *testing.B) {
	threads := runtime.GOMAXPROCS(0)
	a := gen.Scramble(gen.Grid2D(120, 120), 1)
	x := make([]float64, a.Cols)
	y := make([]float64, a.Rows)
	for i := range x {
		x[i] = 1
	}
	plan, err := spmv.NewPlan2D(a, threads)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(12 * a.NNZ()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spmv.Mul2D(a, x, y, plan)
	}
}

func BenchmarkSpMVSerial(b *testing.B) {
	a := gen.Scramble(gen.Grid2D(120, 120), 1)
	x := make([]float64, a.Cols)
	y := make([]float64, a.Rows)
	b.SetBytes(int64(12 * a.NNZ()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spmv.Serial(a, x, y)
	}
}

// BenchmarkReorder times each reordering algorithm on the same scrambled
// mesh (the Table 5 cost ranking in miniature: Gray < RCM < AMD/GP < ND/HP).
func BenchmarkReorder(b *testing.B) {
	a := gen.Scramble(gen.Grid2D(80, 80), 3)
	for _, alg := range reorder.Algorithms {
		b.Run(string(alg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := reorder.Compute(alg, a, reorder.Options{Seed: 1, Parts: 32}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReorderWorkers runs every ordering at workers=1 and workers=4
// on a matrix above the parallel engagement thresholds (6400 vertices
// clears the ND/GP/HP fork minimums), so the CI benchmark smoke compiles
// and exercises each parallel ordering path. The BENCH_reorder.json speedups are measured at study scale by
// `study -exp benchreorder`, not here.
func BenchmarkReorderWorkers(b *testing.B) {
	a := gen.Scramble(gen.Grid2D(80, 80), 3)
	for _, alg := range reorder.Algorithms {
		for _, w := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", alg, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := reorder.Compute(alg, a, reorder.Options{Seed: 1, Parts: 32, Workers: w}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Ablation benches (design decisions called out in DESIGN.md) --------

// BenchmarkAblationGPWeighted compares the paper's row-balanced GP against
// nnz-weighted balancing on a matrix with skewed row densities, reporting
// the model speedup of each on Milan B.
func BenchmarkAblationGPWeighted(b *testing.B) {
	machine.CacheScale = machine.CacheScaleFor(gen.ScaleTest.Factor())
	a := gen.WithDenseRows(gen.Scramble(gen.Grid2D(100, 100), 2), 10, 0.1, 3)
	milan, _ := machine.ByName("Milan B")
	base := machine.EstimateSpMV(a, milan, machine.Kernel1D)
	b.Run("rows", func(b *testing.B) {
		var sp float64
		for i := 0; i < b.N; i++ {
			bm, _, err := reorder.Apply(reorder.GP, a, reorder.Options{Seed: 1, Parts: milan.Cores})
			if err != nil {
				b.Fatal(err)
			}
			sp = machine.EstimateSpMV(bm, milan, machine.Kernel1D).Gflops / base.Gflops
		}
		b.ReportMetric(sp, "model-speedup")
	})
	b.Run("nnz", func(b *testing.B) {
		var sp float64
		for i := 0; i < b.N; i++ {
			p, err := reorder.GraphPartitionOrderWeighted(a, reorder.Options{Seed: 1, Parts: milan.Cores})
			if err != nil {
				b.Fatal(err)
			}
			bm, err := permuteSym(a, p)
			if err != nil {
				b.Fatal(err)
			}
			sp = machine.EstimateSpMV(bm, milan, machine.Kernel1D).Gflops / base.Gflops
		}
		b.ReportMetric(sp, "model-speedup")
	})
}

// BenchmarkAblation2DAtomics compares the paper-style fix-up 2D kernel
// against the CAS-based alternative.
func BenchmarkAblation2DAtomics(b *testing.B) {
	a := gen.RMAT(12, 8, 4) // skewed rows: many boundary rows per split
	threads := runtime.GOMAXPROCS(0) * 4
	x := make([]float64, a.Cols)
	y := make([]float64, a.Rows)
	for i := range x {
		x[i] = 1
	}
	plan, err := spmv.NewPlan2D(a, threads)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fixup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spmv.Mul2D(a, x, y, plan)
		}
	})
	b.Run("atomics", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spmv.Mul2DAtomic(a, x, y, plan)
		}
	})
}

// BenchmarkAblationRCMStart compares pseudo-peripheral and minimum-degree
// root selection, reporting the resulting bandwidth.
func BenchmarkAblationRCMStart(b *testing.B) {
	a := gen.Scramble(gen.Grid2D(100, 100), 5)
	g, err := graph.FromMatrixSymmetrizedWorkers(a, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		strat reorder.StartStrategy
	}{
		{"pseudo-peripheral", reorder.PseudoPeripheralStart},
		{"min-degree", reorder.MinDegreeStart},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var bw int
			for i := 0; i < b.N; i++ {
				p := reorder.ReverseCuthillMcKeeWorkers(g, tc.strat, 1)
				bm, err := permuteSym(a, p)
				if err != nil {
					b.Fatal(err)
				}
				bw = metrics.Bandwidth(bm)
			}
			b.ReportMetric(float64(bw), "bandwidth")
		})
	}
}

// BenchmarkAblationGrayThreshold sweeps the Gray dense-row threshold
// around the paper's default of 20, reporting the Milan B model speedup.
func BenchmarkAblationGrayThreshold(b *testing.B) {
	machine.CacheScale = machine.CacheScaleFor(gen.ScaleTest.Factor())
	// Mixed-stencil rows range from 7 to 27+ nonzeros, so the three
	// thresholds genuinely change the dense/sparse split: 5 treats almost
	// everything as dense (pure density sort), 80 treats everything as
	// sparse (pure bitmap sort), 20 is the paper's configuration.
	a := gen.MixedStencil3D(16, 16, 16, 0.4, 7)
	milan, _ := machine.ByName("Milan B")
	base := machine.EstimateSpMV(a, milan, machine.Kernel1D)
	for _, thr := range []int{5, 20, 80} {
		b.Run(benchName(thr), func(b *testing.B) {
			var sp float64
			for i := 0; i < b.N; i++ {
				bm, _, err := reorder.Apply(reorder.Gray, a, reorder.Options{GrayDenseThreshold: thr})
				if err != nil {
					b.Fatal(err)
				}
				sp = machine.EstimateSpMV(bm, milan, machine.Kernel1D).Gflops / base.Gflops
			}
			b.ReportMetric(sp, "model-speedup")
		})
	}
}

func benchName(thr int) string {
	switch thr {
	case 5:
		return "threshold-5"
	case 20:
		return "threshold-20-paper"
	default:
		return "threshold-80"
	}
}

func permuteSym(a *sparse.CSR, p sparse.Perm) (*sparse.CSR, error) {
	return sparse.PermuteSymmetricWorkers(a, p, 1)
}

func BenchmarkSpMVMerge(b *testing.B) {
	threads := runtime.GOMAXPROCS(0)
	a := gen.Scramble(gen.Grid2D(120, 120), 1)
	x := make([]float64, a.Cols)
	y := make([]float64, a.Rows)
	for i := range x {
		x[i] = 1
	}
	plan, err := spmv.NewPlanMerge(a, threads)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(12 * a.NNZ()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spmv.MulMerge(a, x, y, plan)
	}
}

// BenchmarkCholeskyFactorize times the numeric factorisation under the two
// fill-extremes of Figure 6: AMD (least fill) vs the scrambled original.
func BenchmarkCholeskyFactorize(b *testing.B) {
	a := gen.Scramble(gen.Grid2D(40, 40), 9)
	b.Run("original", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cholesky.Factorize(a); err != nil {
				b.Fatal(err)
			}
		}
	})
	amdM, _, err := reorder.Apply(reorder.AMD, a, reorder.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("amd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cholesky.Factorize(amdM); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationNDSmall sweeps the nested-dissection recursion cutoff,
// reporting the resulting Cholesky fill ratio.
func BenchmarkAblationNDSmall(b *testing.B) {
	a := gen.Scramble(gen.Grid2D(48, 48), 10)
	for _, small := range []int{32, 128, 512} {
		name := "cutoff-32"
		if small == 128 {
			name = "cutoff-128-default"
		} else if small == 512 {
			name = "cutoff-512"
		}
		b.Run(name, func(b *testing.B) {
			var fill float64
			for i := 0; i < b.N; i++ {
				bm, _, err := reorder.Apply(reorder.ND, a, reorder.Options{Seed: 1, NDSmall: small})
				if err != nil {
					b.Fatal(err)
				}
				fill, err = cholesky.FillRatio(bm)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(fill, "fill-ratio")
		})
	}
}

// BenchmarkAblationMatching compares heavy-edge and random matching in the
// partitioner's coarsening, reporting the resulting edge cut.
func BenchmarkAblationMatching(b *testing.B) {
	g, err := graph.FromMatrixSymmetrizedWorkers(gen.Grid2D(100, 100), 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		strat partition.MatchingStrategy
	}{
		{"heavy-edge", partition.HeavyEdgeMatching},
		{"random", partition.RandomMatching},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var cut int
			for i := 0; i < b.N; i++ {
				_, c, err := partition.KWay(g, 16, partition.Options{Seed: 1, Matching: tc.strat})
				if err != nil {
					b.Fatal(err)
				}
				cut = c
			}
			b.ReportMetric(float64(cut), "edge-cut")
		})
	}
}

// BenchmarkParallelBisection measures the deterministic parallel recursive
// bisection against the serial baseline (identical output, see the
// partition tests).
func BenchmarkParallelBisection(b *testing.B) {
	g, err := graph.FromMatrixSymmetrizedWorkers(gen.Grid2D(150, 150), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := partition.KWay(g, 32, partition.Options{Seed: 2, Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := partition.KWay(g, 32, partition.Options{Seed: 2, Workers: 0}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationHPObjective compares the HP ordering under PaToH's two
// objectives (paper §3.3: the study uses cut-net), reporting the model
// speedup on Milan B.
func BenchmarkAblationHPObjective(b *testing.B) {
	machine.CacheScale = machine.CacheScaleFor(gen.ScaleTest.Factor())
	a := gen.Scramble(gen.Grid2D(80, 80), 13)
	milan, _ := machine.ByName("Milan B")
	base := machine.EstimateSpMV(a, milan, machine.Kernel1D)
	for _, tc := range []struct {
		name string
		obj  reorder.HPObjective
	}{
		{"cut-net-paper", reorder.CutNet},
		{"connectivity", reorder.Connectivity},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var sp float64
			for i := 0; i < b.N; i++ {
				bm, _, err := reorder.Apply(reorder.HP, a,
					reorder.Options{Seed: 1, Parts: milan.Cores, HPObjective: tc.obj})
				if err != nil {
					b.Fatal(err)
				}
				sp = machine.EstimateSpMV(bm, milan, machine.Kernel1D).Gflops / base.Gflops
			}
			b.ReportMetric(sp, "model-speedup")
		})
	}
}
