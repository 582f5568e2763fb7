package sparse

import (
	"math/rand"
	"testing"
)

// Single-path benchmarks: each production kernel at one worker against the
// serial oracle it replaced (oracle_test.go). The one path must be no
// slower than the oracle at workers=1; compare the "oracle" and
// "workers=1" sub-benchmarks of each case.

// scrambledGrid3D builds the 7-point Laplacian of a k×k×k grid with its
// rows and columns randomly permuted — short rows scattered across the
// whole matrix, the permutation workload of the study's mesh matrices.
func scrambledGrid3D(k int, seed int64) (*CSR, Perm) {
	n := k * k * k
	coo := NewCOO(n, n, 7*n)
	id := func(x, y, z int) int { return (z*k+y)*k + x }
	for z := 0; z < k; z++ {
		for y := 0; y < k; y++ {
			for x := 0; x < k; x++ {
				i := id(x, y, z)
				coo.Append(i, i, 6)
				for _, d := range [][3]int{{-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1}} {
					xx, yy, zz := x+d[0], y+d[1], z+d[2]
					if xx >= 0 && xx < k && yy >= 0 && yy < k && zz >= 0 && zz < k {
						coo.Append(i, id(xx, yy, zz), -1)
					}
				}
			}
		}
	}
	a, err := coo.ToCSRWorkers(1)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed))
	s, err := PermuteSymmetricWorkers(a, randomPerm(rng, n), 1)
	if err != nil {
		panic(err)
	}
	return s, randomPerm(rng, n)
}

// benchMatrix is one single-path benchmark input and the permutation
// applied to it.
type benchMatrix struct {
	name string
	a    *CSR
	p    Perm
}

func singlePathMatrices() []benchMatrix {
	rng := rand.New(rand.NewSource(99))
	rnd := randomCSR(rng, 20000, 20000, 200000)
	grid, gp := scrambledGrid3D(40, 5)
	return []benchMatrix{
		{"random20k", rnd, randomPerm(rng, rnd.Rows)},
		{"grid3d40", grid, gp},
	}
}

func BenchmarkSinglePathPermuteSymmetric(b *testing.B) {
	for _, m := range singlePathMatrices() {
		b.Run(m.name+"/oracle", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink, _ = permuteSymmetricSerial(m.a, m.p)
			}
		})
		b.Run(m.name+"/workers=1", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink, _ = PermuteSymmetricWorkers(m.a, m.p, 1)
			}
		})
	}
}

func BenchmarkSinglePathPermuteRows(b *testing.B) {
	for _, m := range singlePathMatrices() {
		b.Run(m.name+"/oracle", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink, _ = permuteRowsSerial(m.a, m.p)
			}
		})
		b.Run(m.name+"/workers=1", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink, _ = PermuteRowsWorkers(m.a, m.p, 1)
			}
		})
	}
}

func BenchmarkSinglePathToCSR(b *testing.B) {
	for _, m := range singlePathMatrices() {
		coo := NewCOO(m.a.Rows, m.a.Cols, m.a.NNZ())
		for i := 0; i < m.a.Rows; i++ {
			for k := m.a.RowPtr[i]; k < m.a.RowPtr[i+1]; k++ {
				coo.Append(int(m.a.ColIdx[k]), i, m.a.Val[k]) // transposed: rows arrive unsorted
			}
		}
		b.Run(m.name+"/oracle", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink, _ = toCSRSerial(coo)
			}
		})
		b.Run(m.name+"/workers=1", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink, _ = coo.ToCSRWorkers(1)
			}
		})
	}
}

func BenchmarkSinglePathSortRows(b *testing.B) {
	for _, m := range singlePathMatrices() {
		// Reverse every row so each sort has work to do.
		u := m.a.Clone()
		for i := 0; i < u.Rows; i++ {
			cs, vs := u.ColIdx[u.RowPtr[i]:u.RowPtr[i+1]], u.Val[u.RowPtr[i]:u.RowPtr[i+1]]
			for l, r := 0, len(cs)-1; l < r; l, r = l+1, r-1 {
				cs[l], cs[r] = cs[r], cs[l]
				vs[l], vs[r] = vs[r], vs[l]
			}
		}
		work := u.Clone()
		run := func(b *testing.B, sort func(*CSR)) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(work.ColIdx, u.ColIdx)
				copy(work.Val, u.Val)
				b.StartTimer()
				sort(work)
			}
		}
		b.Run(m.name+"/oracle", func(b *testing.B) { run(b, sortRowsSerial) })
		b.Run(m.name+"/workers=1", func(b *testing.B) { run(b, func(a *CSR) { a.SortRowsWorkers(1) }) })
	}
}
