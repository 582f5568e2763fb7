package sparse

import (
	"bufio"
	"fmt"
	"io"
)

// Serial reference implementations. Each production kernel in this
// package has exactly one implementation, which runs inline at one worker;
// the straightforward serial versions below are kept only as differential
// oracles for the *MatchesSerial tests, the fuzz target and the
// single-path benchmarks.

// permuteSymmetricSerial is the straightforward P·A·Pᵀ: fill the rows in
// new order, then sort every row.
func permuteSymmetricSerial(a *CSR, p Perm) (*CSR, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: symmetric permutation of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	if len(p) != a.Rows {
		return nil, fmt.Errorf("sparse: permutation length %d, want %d", len(p), a.Rows)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	inv := p.Inverse()
	b := &CSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: make([]int, a.Rows+1),
		ColIdx: make([]int32, a.NNZ()),
		Val:    make([]float64, a.NNZ()),
	}
	for newI := 0; newI < a.Rows; newI++ {
		b.RowPtr[newI+1] = b.RowPtr[newI] + a.RowNNZ(p[newI])
	}
	for newI := 0; newI < a.Rows; newI++ {
		oldI := p[newI]
		dst := b.RowPtr[newI]
		for k := a.RowPtr[oldI]; k < a.RowPtr[oldI+1]; k++ {
			b.ColIdx[dst] = int32(inv[a.ColIdx[k]])
			b.Val[dst] = a.Val[k]
			dst++
		}
	}
	sortRowsSerial(b)
	return b, nil
}

// permuteRowsSerial is the straightforward P·A: copy the rows in new
// order.
func permuteRowsSerial(a *CSR, p Perm) (*CSR, error) {
	if len(p) != a.Rows {
		return nil, fmt.Errorf("sparse: permutation length %d, want %d rows", len(p), a.Rows)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b := &CSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: make([]int, a.Rows+1),
		ColIdx: make([]int32, a.NNZ()),
		Val:    make([]float64, a.NNZ()),
	}
	for newI := 0; newI < a.Rows; newI++ {
		b.RowPtr[newI+1] = b.RowPtr[newI] + a.RowNNZ(p[newI])
	}
	for newI := 0; newI < a.Rows; newI++ {
		oldI := p[newI]
		dst := b.RowPtr[newI]
		n := copy(b.ColIdx[dst:b.RowPtr[newI+1]], a.ColIdx[a.RowPtr[oldI]:a.RowPtr[oldI+1]])
		copy(b.Val[dst:dst+n], a.Val[a.RowPtr[oldI]:a.RowPtr[oldI+1]])
	}
	return b, nil
}

// sortRowsSerial sorts every row of a in place, one row after another.
func sortRowsSerial(a *CSR) {
	for i := 0; i < a.Rows; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		sortColVal(a.ColIdx[lo:hi], a.Val[lo:hi])
	}
}

// toCSRSerial is the single-pass COO→CSR conversion: bucket the triplets
// by row, then sort each row by column and sum duplicate coordinates.
func toCSRSerial(c *COO) (*CSR, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	// Bucket the triplets by row (counting sort), then sort each row by
	// column and sum duplicate coordinates.
	nnz := len(c.Val)
	off := make([]int, c.Rows+1)
	for _, i := range c.Row {
		off[i+1]++
	}
	for i := 0; i < c.Rows; i++ {
		off[i+1] += off[i]
	}
	cols := make([]int32, nnz)
	vals := make([]float64, nnz)
	next := make([]int, c.Rows)
	copy(next, off[:c.Rows])
	for k := 0; k < nnz; k++ {
		i := c.Row[k]
		p := next[i]
		next[i]++
		cols[p] = c.Col[k]
		vals[p] = c.Val[k]
	}
	a := &CSR{
		Rows:   c.Rows,
		Cols:   c.Cols,
		RowPtr: make([]int, c.Rows+1),
		ColIdx: make([]int32, 0, nnz),
		Val:    make([]float64, 0, nnz),
	}
	for i := 0; i < c.Rows; i++ {
		lo, hi := off[i], off[i+1]
		sortColVal(cols[lo:hi], vals[lo:hi])
		rowStart := len(a.ColIdx)
		for k := lo; k < hi; k++ {
			if n := len(a.ColIdx); n > rowStart && cols[k] == a.ColIdx[n-1] {
				a.Val[n-1] += vals[k]
				continue
			}
			a.ColIdx = append(a.ColIdx, cols[k])
			a.Val = append(a.Val, vals[k])
		}
		a.RowPtr[i+1] = len(a.ColIdx)
	}
	return a, nil
}

// expandSymmetricSerial returns a COO in which, for every off-diagonal
// entry (i, j), the mirrored entry (j, i) with the same value follows it.
func expandSymmetricSerial(c *COO) *COO {
	e := NewCOO(c.Rows, c.Cols, 2*len(c.Val))
	for k := range c.Val {
		i, j, v := c.Row[k], c.Col[k], c.Val[k]
		e.Row = append(e.Row, i)
		e.Col = append(e.Col, j)
		e.Val = append(e.Val, v)
		if i != j {
			e.Row = append(e.Row, j)
			e.Col = append(e.Col, i)
			e.Val = append(e.Val, v)
		}
	}
	return e
}

// readMatrixMarketSerial is the line-at-a-time reference reader: it
// parses every line through the same mmscan.go helpers as the chunked
// pipeline, appends to one COO, expands symmetric storage afterwards and
// converts with toCSRSerial.
func readMatrixMarketSerial(r io.Reader) (*CSR, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	h, err := readMMBanner(br)
	if err != nil {
		return nil, err
	}
	rows, cols, nnz, err := readMMSizeLine(br)
	if err != nil {
		return nil, err
	}

	coo := NewCOO(rows, cols, nnz)
	read := 0
	for read < nnz {
		line, err := br.ReadString('\n')
		if err != nil && line == "" {
			return nil, fmt.Errorf("sparse: after %d of %d entries: %w", read, nnz, err)
		}
		t := trimMMSpace([]byte(line))
		if isCommentOrBlank(t) {
			continue
		}
		i, j, v, err := parseEntryLine(t, h, rows, cols)
		if err != nil {
			return nil, fmt.Errorf("sparse: entry %d: %w", read+1, err)
		}
		coo.Append(i, j, v)
		read++
	}
	// The historical reader stopped here and silently ignored whatever
	// followed the last entry. A well-formed file holds exactly nnz
	// entries, so trailing non-comment content is a corruption signal
	// (a truncated size line, a concatenated file) and fails loudly.
	for {
		line, err := br.ReadString('\n')
		if err != nil && line == "" {
			break
		}
		if t := trimMMSpace([]byte(line)); !isCommentOrBlank(t) {
			return nil, fmt.Errorf("sparse: content after the declared %d entries: %q", nnz, t)
		}
	}

	switch h.Symmetry {
	case "symmetric":
		coo = expandSymmetricSerial(coo)
	case "skew-symmetric":
		e := NewCOO(rows, cols, 2*coo.NNZ())
		for k := range coo.Val {
			i, j, v := coo.Row[k], coo.Col[k], coo.Val[k]
			e.Row = append(e.Row, i)
			e.Col = append(e.Col, j)
			e.Val = append(e.Val, v)
			e.Row = append(e.Row, j)
			e.Col = append(e.Col, i)
			e.Val = append(e.Val, -v)
		}
		coo = e
	}
	return toCSRSerial(coo)
}
