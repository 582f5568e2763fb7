package reorder

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"sparseorder/internal/gen"
	"sparseorder/internal/graph"
	"sparseorder/internal/sparse"
)

// identityWorkerCounts are the counts the determinism contract is checked
// at: inline, 2, 4, an odd 7, GOMAXPROCS, and 0 (resolves to GOMAXPROCS).
func identityWorkerCounts() []int {
	return []int{1, 2, 4, 7, runtime.GOMAXPROCS(0), 0}
}

// TestWorkersByteIdenticalAllAlgorithms is the tentpole's central promise:
// for every algorithm, the permutation and the reordered matrix computed
// with any Workers value are identical to the serial ones. Run under
// -race in CI this also exercises the parallel paths for data races.
func TestWorkersByteIdenticalAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	mats := []*sparse.CSR{
		gen.Scramble(gen.Grid2D(18, 18), 3),
		randomSquare(rng, 150, 600), // unsymmetric pattern
	}
	for mi, a := range mats {
		for _, alg := range AllOrderings {
			opts := Options{Seed: 9, Parts: 8, Workers: 1}
			wantB, wantP, err := Apply(alg, a, opts)
			if err != nil {
				t.Fatalf("matrix %d %s serial: %v", mi, alg, err)
			}
			for _, w := range identityWorkerCounts() {
				opts.Workers = w
				gotB, gotP, err := Apply(alg, a, opts)
				if err != nil {
					t.Fatalf("matrix %d %s workers=%d: %v", mi, alg, w, err)
				}
				for i := range wantP {
					if gotP[i] != wantP[i] {
						t.Fatalf("matrix %d %s workers=%d: permutation differs at %d", mi, alg, w, i)
					}
				}
				if !gotB.Equal(wantB) {
					t.Fatalf("matrix %d %s workers=%d: reordered matrix differs", mi, alg, w)
				}
			}
		}
	}
}

func TestCuthillMcKeeWorkersMatchesSerial(t *testing.T) {
	// Five components of very different sizes, so more workers than
	// components and more components than workers both occur.
	coo := sparse.NewCOO(120, 120, 400)
	starts := []int{0, 40, 40 + 25, 40 + 25 + 3, 40 + 25 + 3 + 1}
	sizes := []int{40, 25, 3, 1, 51}
	for c, s := range starts {
		for i := s; i < s+sizes[c]-1; i++ {
			coo.Append(i, i+1, 1)
			coo.Append(i+1, i, 1)
		}
	}
	a, err := coo.ToCSRWorkers(1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromMatrixSymmetrizedWorkers(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []StartStrategy{PseudoPeripheralStart, MinDegreeStart} {
		want := cuthillMcKeeSerial(g, strategy)
		for _, w := range []int{1, 2, 3, 4, 7, 8, 16, 0} {
			got := cuthillMcKee(g, strategy, w, nil)
			if len(got) != len(want) {
				t.Fatalf("strategy %d workers=%d: length %d, want %d", strategy, w, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("strategy %d workers=%d: differs from serial at %d", strategy, w, i)
				}
			}
			rev := ReverseCuthillMcKeeWorkers(g, strategy, w)
			for i := range want {
				if rev[i] != want[len(want)-1-i] {
					t.Fatalf("strategy %d workers=%d: reverse is not the reversal", strategy, w)
				}
			}
		}
	}
}

// edgeCorpus builds the degenerate inputs every ordering must survive:
// a 1×1 matrix, a matrix with empty rows, disconnected components, and
// an unsymmetric pattern.
func edgeCorpus(t *testing.T) map[string]*sparse.CSR {
	t.Helper()
	mk := func(rows, cols int, entries [][2]int) *sparse.CSR {
		coo := sparse.NewCOO(rows, cols, len(entries))
		for _, e := range entries {
			coo.Append(e[0], e[1], 1)
		}
		a, err := coo.ToCSRWorkers(1)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	return map[string]*sparse.CSR{
		"one-by-one":   mk(1, 1, [][2]int{{0, 0}}),
		"empty-rows":   mk(6, 6, [][2]int{{0, 0}, {2, 3}, {3, 2}, {5, 5}}),
		"disconnected": mk(8, 8, [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 2}, {6, 7}, {7, 6}}),
		"unsymmetric":  mk(5, 5, [][2]int{{0, 4}, {1, 2}, {4, 0}, {3, 1}, {2, 2}}),
		"all-empty":    mk(4, 4, nil),
	}
}

// TestAllOrderingsOnEdgeCorpus is the property test of the latent-bug
// sweep: every algorithm must return a valid permutation of the right
// length on every degenerate input, serial and parallel alike.
func TestAllOrderingsOnEdgeCorpus(t *testing.T) {
	for name, a := range edgeCorpus(t) {
		for _, alg := range AllOrderings {
			for _, w := range []int{1, 2, 4} {
				p, err := Compute(alg, a, Options{Seed: 1, Parts: 4, Workers: w})
				if err != nil {
					t.Errorf("%s on %s workers=%d: %v", alg, name, w, err)
					continue
				}
				if len(p) != a.Rows || !p.IsValid() {
					t.Errorf("%s on %s workers=%d: invalid permutation %v", alg, name, w, p)
				}
			}
		}
	}
}

// TestGrayBitmapBits64 pins the clamp fix: a configured bitmap width of
// 63 or 64 must be honoured, not silently reduced to 62. Columns 0 and 1
// of a 64-column matrix fall into distinct sections only at bits=64, and
// their full-width Gray ranks order row 1 before row 0; under the old
// clamp both rows shared section 0 and kept their original order.
func TestGrayBitmapBits64(t *testing.T) {
	coo := sparse.NewCOO(2, 64, 2)
	coo.Append(0, 0, 1)
	coo.Append(1, 1, 1)
	a, err := coo.ToCSRWorkers(1)
	if err != nil {
		t.Fatal(err)
	}
	p := GrayOrder(a, Options{GrayBitmapBits: 64})
	if p[0] != 1 || p[1] != 0 {
		t.Errorf("bits=64 order = %v, want [1 0]", p)
	}
	// Sanity: at bits=16 both columns share a section, so the stable sort
	// keeps the original order — the widths genuinely disagree.
	if q := GrayOrder(a, Options{GrayBitmapBits: 16}); q[0] != 0 || q[1] != 1 {
		t.Errorf("bits=16 order = %v, want [0 1]", q)
	}
	// Widths beyond the uint64 capacity clamp to 64 exactly.
	for _, bits := range []int{65, 80, 1 << 20} {
		q := GrayOrder(a, Options{GrayBitmapBits: bits})
		for i := range p {
			if q[i] != p[i] {
				t.Errorf("bits=%d order = %v, want the bits=64 order %v", bits, q, p)
			}
		}
	}
	// grayRank itself is exact at full width: the top bit's code maps to
	// the last rank.
	if r := grayRank(1 << 63); r != ^uint64(0) {
		t.Errorf("grayRank(1<<63) = %#x, want all ones", r)
	}
}

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	a := gen.Scramble(gen.Grid3D(22, 22, 22), 4)
	g, err := graph.FromMatrixSymmetrizedWorkers(a, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkReorderRCM compares Cuthill-McKee with the vertex-by-vertex
// oracle it replaced, on a connected mesh and on an R-MAT graph with
// thousands of components: at workers=1 the one path must not be slower.
func BenchmarkReorderRCM(b *testing.B) {
	rmat, err := graph.FromMatrixSymmetrizedWorkers(gen.RMAT(14, 16, 5), 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []struct {
		name string
		g    *graph.Graph
	}{{"mesh", benchGraph(b)}, {"rmat14", rmat}} {
		b.Run(m.name+"/oracle", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cuthillMcKeeSerial(m.g, PseudoPeripheralStart)
			}
		})
		for _, w := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", m.name, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cuthillMcKee(m.g, PseudoPeripheralStart, w, nil)
				}
			})
		}
	}
}

// BenchmarkReorderPipeline measures the full ApplyTimed hot path (graph
// build + ordering + permutation) the study pays per (matrix, ordering).
func BenchmarkReorderPipeline(b *testing.B) {
	a := gen.Scramble(gen.Grid3D(18, 18, 18), 5)
	for _, w := range []int{1, 4} {
		name := "serial"
		if w > 1 {
			name = "workers4"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, err := ApplyTimed(RCM, a, Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestOrderingAllocationLinearInComponents is the regression test for
// traversal scratch that was reset and sized per component: on a graph of
// n isolated vertices — n components — the bytes RCM, GPS and Sloan
// allocate must stay O(n), not O(components × n).
func TestOrderingAllocationLinearInComponents(t *testing.T) {
	const n = 4096
	g := &graph.Graph{N: n, Ptr: make([]int, n+1)}
	for _, c := range []struct {
		name  string
		order func() sparse.Perm
	}{
		{"rcm", func() sparse.Perm { return ReverseCuthillMcKeeWorkers(g, PseudoPeripheralStart, 1) }},
		{"rcm-mindegree", func() sparse.Perm { return ReverseCuthillMcKeeWorkers(g, MinDegreeStart, 1) }},
		{"rcm-workers2", func() sparse.Perm { return ReverseCuthillMcKeeWorkers(g, PseudoPeripheralStart, 2) }},
		{"gps", func() sparse.Perm { return GibbsPooleStockmeyer(g) }},
		{"sloan", func() sparse.Perm { return Sloan(g, 0, 0) }},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		p := c.order()
		runtime.ReadMemStats(&after)
		if len(p) != n || !p.IsValid() {
			t.Fatalf("%s: invalid permutation", c.name)
		}
		perVertex := float64(after.TotalAlloc-before.TotalAlloc) / n
		t.Logf("%s: %.0f bytes allocated per vertex", c.name, perVertex)
		if perVertex > 2048 {
			t.Errorf("%s: %.0f bytes allocated per vertex on %d isolated vertices, want O(1) per vertex", c.name, perVertex, n)
		}
	}
}
