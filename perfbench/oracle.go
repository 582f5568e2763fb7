package main

import (
	"fmt"
	"math"
	"math/rand"

	"sparseorder/internal/sparse"
	"sparseorder/internal/spmv"
)

// relTol is the oracle's tolerance: every y[i] must lie within
// relTol·(|A|·|x|)[i] of the serial product on the original matrix. A
// reordering only changes the summation order of each row, whose error
// is bounded by (row length)·ε·(|A|·|x|)[i] ≈ 1e-13 for rows of a
// thousand entries, so 1e-10 admits every legal order and nothing else.
const relTol = 1e-10

// reference is y = A·x from spmv.Serial on the original matrix, with the
// per-row magnitude |A|·|x| that scales the tolerance.
type reference struct {
	y, mag []float64
}

func newReference(a *sparse.CSR, x []float64) (*reference, error) {
	r := &reference{y: make([]float64, a.Rows), mag: make([]float64, a.Rows)}
	if err := spmv.Serial(a, x, r.y); err != nil {
		return nil, err
	}
	for i := 0; i < a.Rows; i++ {
		s := 0.0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			s += math.Abs(a.Val[k] * x[a.ColIdx[k]])
		}
		r.mag[i] = s
	}
	return r, nil
}

// check compares y (in the original index space) with the reference.
func (r *reference) check(y []float64) error {
	if len(y) != len(r.y) {
		return fmt.Errorf("y has %d entries, want %d", len(y), len(r.y))
	}
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("y[%d] = %v is not finite", i, v)
		}
		if d := math.Abs(v - r.y[i]); d > relTol*r.mag[i] && d > 1e-300 {
			return fmt.Errorf("y[%d] = %.17g, serial product %.17g (|A||x| = %.3g)", i, v, r.y[i], r.mag[i])
		}
	}
	return nil
}

// checkPermuted compares yb, computed on a reordered matrix whose row i
// is original row perm[i], with the reference.
func (r *reference) checkPermuted(yb []float64, perm sparse.Perm) error {
	if len(yb) != len(perm) {
		return fmt.Errorf("y has %d entries, want %d", len(yb), len(perm))
	}
	y := make([]float64, len(yb))
	for i, p := range perm {
		y[p] = yb[i]
	}
	return r.check(y)
}

// randomVector returns n values uniform in [-1, 1) from seed.
func randomVector(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	return x
}
