package solver

import (
	"math"
	"math/rand"
	"testing"

	"sparseorder/internal/gen"
	"sparseorder/internal/reorder"
	"sparseorder/internal/sparse"
	"sparseorder/internal/spmv"
)

func systemFor(t *testing.T, a *sparse.CSR, seed int64) (xTrue, b []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	xTrue = make([]float64, a.Rows)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b = make([]float64, a.Rows)
	spmv.Serial(a, xTrue, b)
	return xTrue, b
}

func TestCGSolvesGrid(t *testing.T) {
	a := gen.Grid2D(20, 20)
	xTrue, b := systemFor(t, a, 1)
	res, err := CG(a, b, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d iterations (residual %g)", res.Iterations, res.Residual)
	}
	for i := range xTrue {
		if math.Abs(res.X[i]-xTrue[i]) > 1e-6 {
			t.Fatalf("x[%d] = %v, want %v", i, res.X[i], xTrue[i])
		}
	}
	if res.SpMVCount != res.Iterations {
		t.Errorf("SpMV count %d != iterations %d", res.SpMVCount, res.Iterations)
	}
}

func TestCGJacobiConvergesFasterOnSkewedDiagonal(t *testing.T) {
	// A badly scaled SPD system: Jacobi preconditioning must cut the
	// iteration count substantially.
	base := gen.Grid2D(16, 16)
	coo := sparse.FromCSR(base)
	for k := range coo.Val {
		if coo.Row[k] == coo.Col[k] && coo.Row[k]%7 == 0 {
			coo.Val[k] *= 1000
		}
	}
	a, err := coo.ToCSRWorkers(1)
	if err != nil {
		t.Fatal(err)
	}
	_, b := systemFor(t, a, 2)
	plain, err := CG(a, b, Options{Tol: 1e-8, MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := CG(a, b, Options{Tol: 1e-8, MaxIter: 5000, Jacobi: true})
	if err != nil {
		t.Fatal(err)
	}
	if !pre.Converged {
		t.Fatal("preconditioned CG did not converge")
	}
	if pre.Iterations >= plain.Iterations {
		t.Errorf("Jacobi iterations %d not below plain %d", pre.Iterations, plain.Iterations)
	}
}

func TestCGParallelThreadsAgree(t *testing.T) {
	a := gen.Scramble(gen.Grid2D(14, 14), 3)
	xTrue, b := systemFor(t, a, 3)
	for _, threads := range []int{1, 4} {
		res, err := CG(a, b, Options{Tol: 1e-10, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		for i := range xTrue {
			if math.Abs(res.X[i]-xTrue[i]) > 1e-6 {
				t.Fatalf("threads=%d: wrong solution at %d", threads, i)
			}
		}
	}
}

// TestCGKernelsAgree checks that each SpMV kernel drives CG to the same
// solution — the amortization experiment of §4.7 requires swapping the 2D
// and merge kernels into the solve.
func TestCGKernelsAgree(t *testing.T) {
	a := gen.Scramble(gen.Grid2D(14, 14), 5)
	xTrue, b := systemFor(t, a, 5)
	for _, k := range []Kernel{Kernel1D, Kernel2D, KernelMerge} {
		for _, threads := range []int{1, 4} {
			res, err := CG(a, b, Options{Tol: 1e-10, Threads: threads, Kernel: k})
			if err != nil {
				t.Fatalf("kernel=%s threads=%d: %v", k, threads, err)
			}
			if !res.Converged {
				t.Fatalf("kernel=%s threads=%d did not converge", k, threads)
			}
			for i := range xTrue {
				if math.Abs(res.X[i]-xTrue[i]) > 1e-6 {
					t.Fatalf("kernel=%s threads=%d: wrong solution at %d", k, threads, i)
				}
			}
		}
	}
}

func TestCGRejectsUnknownKernel(t *testing.T) {
	a := gen.Grid2D(4, 4)
	if _, err := CG(a, make([]float64, a.Rows), Options{Kernel: Kernel(99)}); err == nil {
		t.Error("accepted unknown kernel")
	}
}

func TestKernelStrings(t *testing.T) {
	for k, want := range map[Kernel]string{Kernel1D: "1D", Kernel2D: "2D", KernelMerge: "merge"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestSolveReorderedMatchesDirect(t *testing.T) {
	a := gen.Scramble(gen.Grid2D(15, 15), 4)
	xTrue, b := systemFor(t, a, 4)
	perm, err := reorder.Compute(reorder.RCM, a, reorder.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pa, err := sparse.PermuteSymmetricWorkers(a, perm, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveReordered(pa, perm, b, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range xTrue {
		if math.Abs(res.X[i]-xTrue[i]) > 1e-6 {
			t.Fatalf("reordered solve wrong at %d: %v vs %v", i, res.X[i], xTrue[i])
		}
	}
}

func TestCGRejectsBadInput(t *testing.T) {
	a := gen.Grid2D(4, 4)
	if _, err := CG(a, make([]float64, 3), Options{}); err == nil {
		t.Error("accepted wrong-length rhs")
	}
	coo := sparse.NewCOO(2, 3, 1)
	coo.Append(0, 0, 1)
	rect, _ := coo.ToCSRWorkers(1)
	if _, err := CG(rect, make([]float64, 2), Options{}); err == nil {
		t.Error("accepted rectangular matrix")
	}
}

func TestCGRejectsIndefinite(t *testing.T) {
	coo := sparse.NewCOO(2, 2, 4)
	coo.Append(0, 0, 1)
	coo.Append(0, 1, 5)
	coo.Append(1, 0, 5)
	coo.Append(1, 1, 1)
	a, _ := coo.ToCSRWorkers(1)
	// b = [1, -1] lies in the negative eigenspace (eigenvalue 1-5 = -4),
	// so the very first pᵀAp is negative.
	if _, err := CG(a, []float64{1, -1}, Options{MaxIter: 100}); err == nil {
		t.Error("CG accepted an indefinite matrix without complaint")
	}
}

func TestCGJacobiRequiresDiagonal(t *testing.T) {
	coo := sparse.NewCOO(2, 2, 2)
	coo.Append(0, 1, 1)
	coo.Append(1, 0, 1)
	a, _ := coo.ToCSRWorkers(1)
	if _, err := CG(a, []float64{1, 1}, Options{Jacobi: true}); err == nil {
		t.Error("Jacobi accepted a matrix with missing diagonal")
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := gen.Grid2D(6, 6)
	res, err := CG(a, make([]float64, a.Rows), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 0 {
		t.Errorf("zero rhs should converge immediately, got %d iterations", res.Iterations)
	}
}
