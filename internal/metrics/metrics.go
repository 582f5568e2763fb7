// Package metrics computes the order-sensitive matrix features the study
// uses to explain SpMV performance (paper §3.2): bandwidth, profile,
// off-diagonal nonzero count, and the load-imbalance factor.
package metrics

import (
	"sparseorder/internal/par"
	"sparseorder/internal/sparse"
	"sparseorder/internal/spmv"
)

// Bandwidth returns the largest distance of any nonzero from the main
// diagonal, max |i-j| over nonzeros a_ij.
func Bandwidth(a *sparse.CSR) int {
	bw := 0
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d := i - int(a.ColIdx[k])
			if d < 0 {
				d = -d
			}
			if d > bw {
				bw = d
			}
		}
	}
	return bw
}

// Profile returns the sum over rows of the distance from the leftmost
// nonzero to the diagonal, Σ_i (i - min{j : a_ij ≠ 0}), counting only rows
// whose leftmost nonzero lies left of the diagonal, per Gibbs et al.
// The leftmost nonzero is found by scanning the whole row rather than
// reading ColIdx[RowPtr[i]]: externally built CSRs can carry unsorted rows
// (that is what sparse.CSR.SortRows exists to repair), and the first
// stored entry of such a row need not be its minimum column.
func Profile(a *sparse.CSR) int64 {
	var p int64
	for i := 0; i < a.Rows; i++ {
		p += profileRow(a, i)
	}
	return p
}

// profileRow returns row i's contribution to the profile.
func profileRow(a *sparse.CSR, i int) int64 {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	if lo == hi {
		return 0
	}
	first := int(a.ColIdx[lo])
	for k := lo + 1; k < hi; k++ {
		if c := int(a.ColIdx[k]); c < first {
			first = c
		}
	}
	if first < i {
		return int64(i - first)
	}
	return 0
}

// OffDiagonalNNZ counts nonzeros outside the blocks×blocks block diagonal:
// the matrix is divided into an even blocks-way row and column grid and
// nonzeros whose row block differs from their column block are counted.
// With the row grid of the 1D SpMV algorithm this equals the edge-cut
// objective of graph partitioning (paper §3.2).
func OffDiagonalNNZ(a *sparse.CSR, blocks int) int64 {
	if blocks <= 1 || a.Rows == 0 || a.Cols == 0 {
		return 0
	}
	var count int64
	for i := 0; i < a.Rows; i++ {
		bi := i * blocks / a.Rows
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			bj := int(a.ColIdx[k]) * blocks / a.Cols
			if bi != bj {
				count++
			}
		}
	}
	return count
}

// ImbalanceFactor returns max/mean of the per-thread nonzero counts: 1.0
// means perfectly balanced, 2.0 means the busiest thread carries twice the
// average.
func ImbalanceFactor(threadNNZ []int) float64 {
	if len(threadNNZ) == 0 {
		return 1
	}
	total, maxNNZ := 0, 0
	for _, n := range threadNNZ {
		total += n
		if n > maxNNZ {
			maxNNZ = n
		}
	}
	if total == 0 {
		return 1
	}
	return float64(maxNNZ) * float64(len(threadNNZ)) / float64(total)
}

// Imbalance1D returns the load-imbalance factor of the 1D row-split SpMV
// with the given thread count.
func Imbalance1D(a *sparse.CSR, threads int) float64 {
	return ImbalanceFactor(spmv.ThreadNNZ1D(a, threads))
}

// Features bundles the study's order-sensitive features of one matrix
// under one ordering.
type Features struct {
	Bandwidth   int
	Profile     int64
	OffDiagNNZ  int64
	Imbalance1D float64
}

// ComputeWorkers evaluates all features; blocks and threads are typically
// both the core count of the machine under study. The bandwidth, profile
// and off-diagonal passes are fused into one loop split across row ranges
// with per-chunk partial results, and the imbalance factor is computed
// alongside. Workers follow the shared convention (0 = GOMAXPROCS, 1 runs
// the same code inline). All reductions are integer max/sum in chunk
// order, so the result is identical at every worker count and equals
// Bandwidth, Profile, OffDiagonalNNZ and Imbalance1D evaluated one by one.
func ComputeWorkers(a *sparse.CSR, blocks, threads, workers int) Features {
	w := par.Resolve(workers)
	var f Features
	type partial struct {
		bw      int
		profile int64
		offdiag int64
	}
	parts := make([]partial, par.Chunks(a.Rows, w))
	par.Do(w,
		func() { f.Imbalance1D = Imbalance1D(a, threads) },
		func() {
			doOff := blocks > 1 && a.Rows > 0 && a.Cols > 0
			par.Ranges(a.Rows, w, func(chunk, lo, hi int) {
				var pt partial
				for i := lo; i < hi; i++ {
					bi := 0
					if doOff {
						bi = i * blocks / a.Rows
					}
					for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
						j := int(a.ColIdx[k])
						d := i - j
						if d < 0 {
							d = -d
						}
						if d > pt.bw {
							pt.bw = d
						}
						if doOff && j*blocks/a.Cols != bi {
							pt.offdiag++
						}
					}
					pt.profile += profileRow(a, i)
				}
				parts[chunk] = pt
			})
		})
	for _, pt := range parts {
		if pt.bw > f.Bandwidth {
			f.Bandwidth = pt.bw
		}
		f.Profile += pt.profile
		f.OffDiagNNZ += pt.offdiag
	}
	return f
}

// RowNNZStats returns the minimum, maximum and mean nonzeros per row.
func RowNNZStats(a *sparse.CSR) (minRow, maxRow int, mean float64) {
	if a.Rows == 0 {
		return 0, 0, 0
	}
	minRow = a.RowNNZ(0)
	for i := 0; i < a.Rows; i++ {
		n := a.RowNNZ(i)
		if n < minRow {
			minRow = n
		}
		if n > maxRow {
			maxRow = n
		}
	}
	mean = float64(a.NNZ()) / float64(a.Rows)
	return minRow, maxRow, mean
}
