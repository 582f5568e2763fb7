package reorder

import (
	"context"
	"testing"

	"sparseorder/internal/cholesky"
	"sparseorder/internal/gen"
	"sparseorder/internal/graph"
	"sparseorder/internal/sparse"
)

// TestWorkersByteIdenticalLargeMatrix is the determinism check above the
// parallel size thresholds, where the small-matrix identity test never
// forks: 6400 vertices engages ND's fork-join dissection (>1024) and the
// forked recursive bisections of GP and HP (>4096), and AMD must ignore
// the worker count entirely. Run under -race in CI this doubles as the
// race check for every parallel path.
func TestWorkersByteIdenticalLargeMatrix(t *testing.T) {
	a := gen.Scramble(gen.Grid2D(80, 80), 7)
	for _, alg := range []Algorithm{AMD, ND, GP, HP} {
		opts := Options{Seed: 3, Parts: 16, Workers: 1}
		want, err := Compute(alg, a, opts)
		if err != nil {
			t.Fatalf("%s workers=1: %v", alg, err)
		}
		if len(want) != a.Rows || !want.IsValid() {
			t.Fatalf("%s workers=1: invalid permutation", alg)
		}
		for _, w := range []int{2, 4, 7, 0} {
			opts.Workers = w
			got, err := Compute(alg, a, opts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", alg, w, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: permutation differs from workers=1 at %d", alg, w, i)
				}
			}
		}
	}
}

// TestAMDWorkersMatchesClassic pins AMD to the classic quotient-graph
// elimination at every size and worker count: the graph sizes straddle
// 4096 vertices, where an earlier multiple-elimination variant took over.
func TestAMDWorkersMatchesClassic(t *testing.T) {
	for _, a := range []*sparse.CSR{
		gen.Scramble(gen.Grid2D(20, 20), 5), // 400 vertices
		gen.Scramble(gen.Grid2D(80, 80), 5), // 6400 vertices
	} {
		g, err := graph.FromMatrixSymmetrizedWorkers(a, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := approxMinimumDegree(g, nil)
		for _, w := range []int{1, 2, 4, 7, 0} {
			got, err := Compute(AMD, a, Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d workers=%d: differs from classic AMD at %d", g.N, w, i)
				}
			}
		}
	}
}

// TestAMDReducesFillOnLargeMesh checks that AMD is a real minimum-degree
// ordering, not merely a valid permutation: on a scrambled mesh its
// Cholesky fill must land well below the unordered fill.
func TestAMDReducesFillOnLargeMesh(t *testing.T) {
	a := gen.Scramble(gen.Grid2D(80, 80), 11)
	fill := func(p sparse.Perm) int64 {
		t.Helper()
		b, err := sparse.PermuteSymmetricWorkers(a, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		nnz, err := cholesky.FactorNNZ(b)
		if err != nil {
			t.Fatal(err)
		}
		return nnz
	}
	p, err := Compute(AMD, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	amdFill, origFill := fill(p), fill(sparse.Identity(a.Rows))
	if 4*amdFill >= origFill {
		t.Errorf("AMD fill %d not well below unordered fill %d", amdFill, origFill)
	}
}

// TestWeightedGPHonorsContext is the regression test for the ablation path
// dropping its context: GraphPartitionOrderWeightedCtx must fail fast on a
// cancelled context and must agree with the plain entry point otherwise.
func TestWeightedGPHonorsContext(t *testing.T) {
	a := gen.Scramble(gen.Grid2D(30, 30), 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := GraphPartitionOrderWeightedCtx(ctx, a, Options{Seed: 1, Parts: 8}); err == nil {
		t.Fatal("cancelled context produced a permutation instead of an error")
	}
	want, err := GraphPartitionOrderWeighted(a, Options{Seed: 1, Parts: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, err := GraphPartitionOrderWeightedCtx(context.Background(), a, Options{Seed: 1, Parts: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ctx variant differs from plain at %d", i)
		}
	}
}
