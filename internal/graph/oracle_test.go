package graph

import (
	"fmt"

	"sparseorder/internal/sparse"
)

// Serial reference graph builds, kept only as differential oracles for the
// *MatchesSerial tests and the single-path benchmarks. Production builds
// go through FromMatrixSymmetrizedWorkers, which runs inline at one worker.

// fromMatrixSerial is the single-loop graph build of a structurally
// symmetric matrix: count the off-diagonal entries of every row, then copy
// them.
func fromMatrixSerial(a *sparse.CSR) (*Graph, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("graph: matrix must be square, got %dx%d", a.Rows, a.Cols)
	}
	g := &Graph{N: a.Rows, Ptr: make([]int, a.Rows+1)}
	for i := 0; i < a.Rows; i++ {
		n := 0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if int(a.ColIdx[k]) != i {
				n++
			}
		}
		g.Ptr[i+1] = g.Ptr[i] + n
		if n > g.degMax {
			g.degMax = n
		}
	}
	g.Adj = make([]int32, g.Ptr[a.Rows])
	pos := 0
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if j := a.ColIdx[k]; int(j) != i {
				g.Adj[pos] = j
				pos++
			}
		}
	}
	return g, nil
}

// fromMatrixSymmetrizedSerial materialises A + Aᵀ (value-carrying
// transpose, pattern check, Add) when the pattern of a is unsymmetric and
// builds the graph of the result with fromMatrixSerial.
func fromMatrixSymmetrizedSerial(a *sparse.CSR) (*Graph, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("graph: matrix must be square, got %dx%d", a.Rows, a.Cols)
	}
	if !a.IsStructurallySymmetric() {
		s, err := sparse.Symmetrize(a)
		if err != nil {
			return nil, err
		}
		a = s
	}
	return fromMatrixSerial(a)
}
