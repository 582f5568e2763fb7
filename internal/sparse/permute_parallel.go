package sparse

import (
	"fmt"
	"sort"

	"sparseorder/internal/par"
)

// Worker-count convention shared by the row-range kernels in this package
// (and mirrored by internal/graph, internal/metrics and internal/reorder):
// 0 means GOMAXPROCS, 1 runs the same code inline on the calling
// goroutine, and any positive count bounds the goroutines used. Each job
// has one implementation, and its output is byte-identical at every worker
// count: the RowPtr prefix sum fixes each output row's offset up front, so
// row ranges are filled independently, and within-row sorting is by unique
// column indices whose sorted order does not depend on the sorting
// algorithm.

// PermuteSymmetricWorkers returns P·A·Pᵀ, the matrix with rows and columns
// simultaneously reordered by p (new-to-old), computed by a row-range
// count/scatter/sort pipeline over the given worker count. All orderings
// in the study except Gray are symmetric permutations.
func PermuteSymmetricWorkers(a *CSR, p Perm, workers int) (*CSR, error) {
	if a.Rows != a.Cols {
		return nil, errNonSquareSym(a)
	}
	if len(p) != a.Rows {
		return nil, errPermLen(p, a.Rows, "")
	}
	// The int32 inverse halves the footprint of the scatter's random
	// column lookups compared with an []int one.
	inv, err := p.inverse32()
	if err != nil {
		return nil, err
	}
	b := permuteRowPtr(a, p, par.Resolve(workers))
	par.Ranges(a.Rows, par.Resolve(workers), func(_, lo, hi int) {
		rowPtr, colIdx, val := b.RowPtr, b.ColIdx, b.Val
		aPtr, aCol, aVal := a.RowPtr, a.ColIdx, a.Val
		// Scatter the whole range before sorting any row: the scatter's
		// random inverse lookups have no data-dependent branches, so the
		// CPU overlaps their cache misses across rows, which sorting each
		// row as soon as it is written would serialise.
		for newI := lo; newI < hi; newI++ {
			dst, end := rowPtr[newI], rowPtr[newI+1]
			src := aPtr[p[newI]]
			cols, vals := colIdx[dst:end], val[dst:end]
			srcVals := aVal[src : src+len(vals)]
			for k, c := range aCol[src : src+len(cols)] {
				cols[k] = inv[c]
				vals[k] = srcVals[k]
			}
		}
		ls := longRowSorter{n: a.Cols}
		for newI := lo; newI < hi; newI++ {
			cols, vals := colIdx[rowPtr[newI]:rowPtr[newI+1]], val[rowPtr[newI]:rowPtr[newI+1]]
			if len(cols) > longRowCutoff {
				ls.sort(cols, vals)
			} else {
				insertionSortRow(cols, vals)
			}
		}
	})
	return b, nil
}

// PermuteRowsWorkers returns P·A, the matrix with only its rows reordered
// by p (new-to-old), computed with row-range count and copy passes over
// the given worker count; columns are left in place. The Gray ordering is
// applied this way because it does not preserve symmetry.
func PermuteRowsWorkers(a *CSR, p Perm, workers int) (*CSR, error) {
	if len(p) != a.Rows {
		return nil, errPermLen(p, a.Rows, " rows")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b := permuteRowPtr(a, p, par.Resolve(workers))
	par.Ranges(a.Rows, par.Resolve(workers), func(_, lo, hi int) {
		rowPtr, colIdx, val := b.RowPtr, b.ColIdx, b.Val
		aPtr := a.RowPtr
		for newI := lo; newI < hi; newI++ {
			dst, end := rowPtr[newI], rowPtr[newI+1]
			src := aPtr[p[newI]]
			copy(colIdx[dst:end], a.ColIdx[src:])
			copy(val[dst:end], a.Val[src:])
		}
	})
	return b, nil
}

// permuteRowPtr allocates the result of permuting a's rows by p and fills
// its RowPtr: row lengths counted over row ranges, then one O(rows)
// prefix sum, which fixes every output row's offset before any row is
// written.
func permuteRowPtr(a *CSR, p Perm, w int) *CSR {
	b := &CSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: make([]int, a.Rows+1),
		ColIdx: make([]int32, a.NNZ()),
		Val:    make([]float64, a.NNZ()),
	}
	par.Ranges(a.Rows, w, func(_, lo, hi int) {
		rowPtr, aPtr := b.RowPtr, a.RowPtr
		for newI := lo; newI < hi; newI++ {
			old := p[newI]
			rowPtr[newI+1] = aPtr[old+1] - aPtr[old]
		}
	})
	for newI := 0; newI < a.Rows; newI++ {
		b.RowPtr[newI+1] += b.RowPtr[newI]
	}
	return b
}

// SortRowsWorkers sorts the column indices (and the corresponding values)
// within every row in ascending order, splitting the rows across workers.
// Construction functions in this package always produce sorted rows;
// SortRowsWorkers repairs externally built matrices.
func (a *CSR) SortRowsWorkers(workers int) {
	par.Ranges(a.Rows, par.Resolve(workers), func(_, lo, hi int) {
		rowPtr, colIdx, val := a.RowPtr, a.ColIdx, a.Val
		for i := lo; i < hi; i++ {
			l, h := rowPtr[i], rowPtr[i+1]
			sortColVal(colIdx[l:h], val[l:h])
		}
	})
}

func errNonSquareSym(a *CSR) error {
	return fmt.Errorf("sparse: symmetric permutation of non-square %dx%d matrix", a.Rows, a.Cols)
}

// errPermLen reports a permutation whose length does not match n; the
// suffix names what n counts.
func errPermLen(p Perm, n int, suffix string) error {
	return fmt.Errorf("sparse: permutation length %d, want %d%s", len(p), n, suffix)
}

// longRowCutoff is the row length above which insertion sort loses to the
// alternatives; PermuteSymmetricWorkers hands rows this long to
// longRowSorter.
const longRowCutoff = 48

// longRowSorter counting-sorts long rows with unique column indices (the
// CSR invariant inside PermuteSymmetricWorkers): values are parked at
// their column slot in a generation-stamped scratch of the matrix width,
// then collected by an ascending scan of the row's column span. The scan
// is sequential memory traffic, so for rows that occupy a decent fraction
// of their span it is far cheaper than a comparison sort; sparse long
// rows (span > ~16 slots per nonzero) fall back to a comparison sort. The
// output — unique columns ascending — is what every sort produces, so
// this changes nothing but time. Not safe for rows with duplicate
// columns, which would collapse to one slot.
type longRowSorter struct {
	n     int // matrix column count (scratch width)
	gen   int32
	stamp []int32
	val   []float64
}

func (s *longRowSorter) sort(cols []int32, vals []float64) {
	minC, maxC := cols[0], cols[0]
	for _, c := range cols[1:] {
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if span := int(maxC-minC) + 1; span > 16*len(cols) {
		sort.Sort(&colValSort{cols, vals})
		return
	}
	if s.stamp == nil {
		s.stamp = make([]int32, s.n)
		s.val = make([]float64, s.n)
		s.gen = 0
	}
	s.gen++
	for k, c := range cols {
		s.stamp[c] = s.gen
		s.val[c] = vals[k]
	}
	k := 0
	for c := minC; c <= maxC; c++ {
		if s.stamp[c] == s.gen {
			cols[k] = c
			vals[k] = s.val[c]
			k++
		}
	}
}
