package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"sparseorder/internal/gen"
	"sparseorder/internal/sparse"
)

func graphsEqual(t *testing.T, got, want *Graph, label string) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("%s: N = %d, want %d", label, got.N, want.N)
	}
	for i := range want.Ptr {
		if got.Ptr[i] != want.Ptr[i] {
			t.Fatalf("%s: Ptr[%d] = %d, want %d", label, i, got.Ptr[i], want.Ptr[i])
		}
	}
	if len(got.Adj) != len(want.Adj) {
		t.Fatalf("%s: %d adjacency entries, want %d", label, len(got.Adj), len(want.Adj))
	}
	for k := range want.Adj {
		if got.Adj[k] != want.Adj[k] {
			t.Fatalf("%s: Adj[%d] = %d, want %d", label, k, got.Adj[k], want.Adj[k])
		}
	}
	if got.MaxDegree() != want.MaxDegree() {
		t.Fatalf("%s: MaxDegree = %d, want %d", label, got.MaxDegree(), want.MaxDegree())
	}
}

// TestFromMatrixWorkersMatchesSerial checks the one graph build on
// structurally symmetric patterns against fromMatrixSerial, the plain
// single-loop build that takes the pattern as it is, at every worker count.
func TestFromMatrixWorkersMatchesSerial(t *testing.T) {
	for _, a := range []*sparse.CSR{
		gen.Grid2D(15, 15),
		gen.Scramble(gen.Grid3D(7, 7, 7), 3),
		gen.Grid2D(1, 1),
	} {
		want, err := fromMatrixSerial(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 3, 4, 7, runtime.GOMAXPROCS(0), 0} {
			got, err := FromMatrixSymmetrizedWorkers(a, w)
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			graphsEqual(t, got, want, "FromMatrixSymmetrizedWorkers")
		}
	}
}

func TestFromMatrixSymmetrizedWorkersMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	unsym := sparse.NewCOO(90, 90, 500)
	for k := 0; k < 400; k++ {
		unsym.Append(rng.Intn(90), rng.Intn(90), 1)
	}
	u, err := unsym.ToCSRWorkers(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []*sparse.CSR{
		u,                  // unsymmetric pattern: A+Aᵀ union path
		gen.Grid2D(12, 12), // already symmetric
		gen.WithDenseRows(gen.Grid2D(10, 10), 3, 0.4, 5), // dense unsymmetric rows
	} {
		want, err := fromMatrixSymmetrizedSerial(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 3, 4, 7, runtime.GOMAXPROCS(0), 0} {
			got, err := FromMatrixSymmetrizedWorkers(a, w)
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			graphsEqual(t, got, want, "FromMatrixSymmetrizedWorkers")
		}
	}
}

func TestFromMatrixSymmetrizedWorkersRejectsRectangular(t *testing.T) {
	coo := sparse.NewCOO(2, 3, 1)
	coo.Append(0, 2, 1)
	a, _ := coo.ToCSRWorkers(1)
	if _, err := FromMatrixSymmetrizedWorkers(a, 4); err == nil {
		t.Error("accepted rectangular matrix")
	}
}

// TestMaxDegreeConcurrent exercises MaxDegree from many goroutines at
// once, on a constructor-built graph (degMax precomputed) and on a
// hand-assembled literal (the lazy scan path). Run under -race this
// guards the regression where the lazy path cached its result without
// synchronisation.
func TestMaxDegreeConcurrent(t *testing.T) {
	built, err := FromMatrixSymmetrizedWorkers(gen.Grid2D(20, 20), 1)
	if err != nil {
		t.Fatal(err)
	}
	literal := &Graph{N: 4, Ptr: []int{0, 2, 3, 5, 6}, Adj: []int32{1, 2, 0, 0, 3, 2}}
	for _, tc := range []struct {
		g    *Graph
		want int
	}{{built, 4}, {literal, 2}} {
		var wg sync.WaitGroup
		errs := make([]int, 16)
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = tc.g.MaxDegree()
			}(i)
		}
		wg.Wait()
		for i, d := range errs {
			if d != tc.want {
				t.Fatalf("goroutine %d: MaxDegree = %d, want %d", i, d, tc.want)
			}
		}
	}
}

// BenchmarkReorderGraphBuild compares the graph builds with the serial
// oracles they replaced, on a symmetric and an unsymmetric pattern: at
// workers=1 the one path must not be slower than the oracle.
func BenchmarkReorderGraphBuild(b *testing.B) {
	sym := gen.Scramble(gen.Grid3D(24, 24, 24), 2)
	unsym := gen.WithDenseRows(gen.Scramble(gen.Grid3D(24, 24, 24), 2), 20, 0.05, 3)
	for _, m := range []struct {
		name string
		a    *sparse.CSR
	}{{"sym", sym}, {"unsym", unsym}} {
		b.Run(m.name+"/oracle", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fromMatrixSymmetrizedSerial(m.a); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, w := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", m.name, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := FromMatrixSymmetrizedWorkers(m.a, w); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
