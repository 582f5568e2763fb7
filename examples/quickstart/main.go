// Quickstart: generate a matrix whose ordering was lost, reorder it with
// graph partitioning (the study's overall winner), and compare SpMV before
// and after — on the host and on the modelled Milan B machine.
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"sparseorder/internal/gen"
	"sparseorder/internal/machine"
	"sparseorder/internal/metrics"
	"sparseorder/internal/reorder"
	"sparseorder/internal/spmv"
)

func main() {
	log.SetFlags(0)

	// A 2D finite-element mesh whose rows arrived in random order — the
	// situation where reordering pays off most.
	a := gen.Scramble(gen.Grid2D(150, 150), 1)
	fmt.Printf("matrix: %dx%d with %d nonzeros (scrambled FEM mesh)\n", a.Rows, a.Cols, a.NNZ())

	// Reorder with METIS-style graph partitioning, one part per core.
	threads := runtime.GOMAXPROCS(0)
	start := time.Now()
	b, perm, err := reorder.Apply(reorder.GP, a, reorder.Options{Parts: 128, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GP reordering took %v (permutation valid: %v)\n",
		time.Since(start).Round(time.Millisecond), perm.IsValid())

	// The order-sensitive features explain what changed.
	before := metrics.ComputeWorkers(a, 128, 128, 0)
	after := metrics.ComputeWorkers(b, 128, 128, 0)
	fmt.Printf("off-diagonal nnz: %d -> %d   bandwidth: %d -> %d\n",
		before.OffDiagNNZ, after.OffDiagNNZ, before.Bandwidth, after.Bandwidth)

	// Host SpMV, both kernels (best of 20 runs, as the paper measures).
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = float64(i%10) * 0.1
	}
	y := make([]float64, a.Rows)
	best := func(f func()) float64 {
		bestT := 0.0
		for i := 0; i < 20; i++ {
			t0 := time.Now()
			f()
			if el := time.Since(t0).Seconds(); bestT == 0 || el < bestT {
				bestT = el
			}
		}
		return bestT
	}
	t1 := best(func() { spmv.Mul1D(a, x, y, threads) })
	t2 := best(func() { spmv.Mul1D(b, x, y, threads) })
	fmt.Printf("host 1D SpMV (%d threads): %.3gs -> %.3gs (%.2fx)\n", threads, t1, t2, t1/t2)

	// Machine-model view: what this reordering would do on the study's
	// 128-core AMD Epyc Milan system.
	milan, _ := machine.ByName("Milan B")
	e0 := machine.EstimateSpMV(a, milan, machine.Kernel1D)
	e1 := machine.EstimateSpMV(b, milan, machine.Kernel1D)
	fmt.Printf("Milan B model: %.1f -> %.1f Gflop/s (%.2fx)\n", e0.Gflops, e1.Gflops, e1.Gflops/e0.Gflops)
}
