// cgsolver demonstrates the amortization argument of the paper's §4.7: a
// conjugate-gradient solver performs many SpMV iterations with the same
// matrix, so even an expensive reordering pays for itself. It solves the
// same SPD system with the original and RCM orderings (with and without
// Jacobi preconditioning) using the library's solver package.
package main

import (
	"fmt"
	"log"
	"math"
	"runtime"
	"time"

	"sparseorder/internal/gen"
	"sparseorder/internal/reorder"
	"sparseorder/internal/solver"
	"sparseorder/internal/sparse"
	"sparseorder/internal/spmv"
)

func main() {
	log.SetFlags(0)
	threads := runtime.GOMAXPROCS(0)

	// An SPD system on a scrambled mesh.
	a := gen.Scramble(gen.Grid2D(120, 120), 3)
	n := a.Rows
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 1
	}
	fmt.Printf("solving %dx%d SPD system (%d nnz) with CG, %d threads\n", n, n, a.NNZ(), threads)

	opts := solver.Options{Tol: 1e-8, MaxIter: 2000, Threads: threads}

	start := time.Now()
	res, err := solver.CG(a, rhs, opts)
	if err != nil {
		log.Fatal(err)
	}
	tOrig := time.Since(start)
	fmt.Printf("original order:  %4d iterations, %8v, residual %.2e\n",
		res.Iterations, tOrig.Round(time.Millisecond), res.Residual)

	// Reorder with RCM and solve the permuted system.
	t0 := time.Now()
	perm, err := reorder.Compute(reorder.RCM, a, reorder.Options{})
	if err != nil {
		log.Fatal(err)
	}
	pa, err := sparse.PermuteSymmetricWorkers(a, perm, 0)
	if err != nil {
		log.Fatal(err)
	}
	reorderCost := time.Since(t0)

	start = time.Now()
	resR, err := solver.SolveReordered(pa, perm, rhs, opts)
	if err != nil {
		log.Fatal(err)
	}
	tRCM := time.Since(start)
	fmt.Printf("after RCM:       %4d iterations, %8v, residual %.2e (reordering cost %v)\n",
		resR.Iterations, tRCM.Round(time.Millisecond), resR.Residual, reorderCost.Round(time.Millisecond))

	// The two solutions must agree: reordering changes only the data
	// layout, never the mathematics.
	maxDiff := 0.0
	for i := range res.X {
		if d := math.Abs(res.X[i] - resR.X[i]); d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("max |x_orig - x_rcm| = %.2e\n", maxDiff)

	// Residual sanity against the original system.
	ax := make([]float64, n)
	spmv.Serial(a, resR.X, ax)
	worst := 0.0
	for i := range ax {
		if d := math.Abs(ax[i] - rhs[i]); d > worst {
			worst = d
		}
	}
	fmt.Printf("permuted-back residual (inf-norm): %.2e\n", worst)

	// Jacobi preconditioning on top.
	opts.Jacobi = true
	resJ, err := solver.SolveReordered(pa, perm, rhs, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RCM + Jacobi CG: %4d iterations\n", resJ.Iterations)

	if tOrig > tRCM {
		saved := tOrig - tRCM
		fmt.Printf("time saved by reordering: %v; amortised after ~%.0f%% of one solve\n",
			saved.Round(time.Millisecond), 100*float64(reorderCost)/float64(saved))
	} else {
		fmt.Println("no wall-clock saving on this host; the paper's multicores amortise RCM after ~6500 SpMV iterations")
	}
}
