package sparse

import "fmt"

// A Perm describes a matrix ordering in new-to-old form: position i of the
// reordered matrix holds row (and, for symmetric permutations, column)
// Perm[i] of the original matrix. This is the order in which traversal-based
// algorithms such as Cuthill-McKee visit vertices.
type Perm []int

// Identity returns the identity permutation of length n.
func Identity(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// PermError describes the first way a permutation fails to be a bijection
// on {0, …, N-1}. Perm.Validate returns it, and the permutation entry
// points propagate it, so callers can recognise a buggy ordering with
// errors.As before it corrupts a matrix.
type PermError struct {
	N     int // permutation length
	Index int // offending position
	Value int // value found at Index
	Dup   int // earlier position holding the same value; -1 for a range error
}

func (e *PermError) Error() string {
	if e.Dup >= 0 {
		return fmt.Sprintf("sparse: permutation of length %d maps positions %d and %d to the same value %d",
			e.N, e.Dup, e.Index, e.Value)
	}
	return fmt.Sprintf("sparse: permutation of length %d has out-of-range value %d at position %d",
		e.N, e.Value, e.Index)
}

// Validate checks that p is a bijection on {0, …, len(p)-1}, returning a
// *PermError locating the first out-of-range or duplicated value.
func (p Perm) Validate() error {
	_, err := p.inverse32()
	return err
}

// inverse32 validates p like Validate and returns its old-to-new inverse
// in int32 form: the position table the duplicate check needs is exactly
// the inverse.
func (p Perm) inverse32() ([]int32, error) {
	seen := make([]int32, len(p))
	for i := range seen {
		seen[i] = -1
	}
	for i, v := range p {
		if v < 0 || v >= len(p) {
			return nil, &PermError{N: len(p), Index: i, Value: v, Dup: -1}
		}
		if j := seen[v]; j >= 0 {
			return nil, &PermError{N: len(p), Index: i, Value: v, Dup: int(j)}
		}
		seen[v] = int32(i)
	}
	return seen, nil
}

// IsValid reports whether p is a bijection on {0, …, len(p)-1}.
func (p Perm) IsValid() bool { return p.Validate() == nil }

// Inverse returns the old-to-new permutation q with q[p[i]] = i.
func (p Perm) Inverse() Perm {
	q := make(Perm, len(p))
	for i, v := range p {
		q[v] = i
	}
	return q
}

// Compose returns the permutation r with r[i] = p[q[i]]; applying r is
// equivalent to applying p first and then q to the result.
func (p Perm) Compose(q Perm) Perm {
	r := make(Perm, len(p))
	for i := range r {
		r[i] = p[q[i]]
	}
	return r
}

// PermuteCols returns A·Pᵀ, the matrix with its columns relabelled by p
// (new-to-old): old column p[j] becomes column j.
func PermuteCols(a *CSR, p Perm) (*CSR, error) {
	if len(p) != a.Cols {
		return nil, fmt.Errorf("sparse: permutation length %d, want %d cols", len(p), a.Cols)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	inv := p.Inverse()
	b := a.Clone()
	for k := range b.ColIdx {
		b.ColIdx[k] = int32(inv[b.ColIdx[k]])
	}
	b.SortRowsWorkers(1)
	return b, nil
}
