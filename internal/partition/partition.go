// Package partition implements a multilevel graph partitioner in the style
// of METIS: heavy-edge-matching coarsening, greedy-graph-growing initial
// bisection, Fiduccia-Mattheyses boundary refinement during uncoarsening,
// recursive bisection to k parts with the edge-cut objective, and
// vertex-separator extraction for nested dissection.
package partition

import (
	"context"
	"fmt"
	"math/rand"

	"sparseorder/internal/graph"
	"sparseorder/internal/obs"
	"sparseorder/internal/par"
)

// Options control the partitioner. The zero value is usable; fields set to
// zero assume the documented defaults.
type Options struct {
	// Seed drives the randomized matching and initial-partition trials so
	// results are reproducible.
	Seed int64
	// Imbalance is the allowed relative imbalance ε: every part may weigh
	// at most (1+ε)·(total/parts). Default 0.03, matching METIS' default
	// load-balance tolerance.
	Imbalance float64
	// CoarsenTo stops coarsening once the graph has at most this many
	// vertices. Default 64.
	CoarsenTo int
	// InitTrials is the number of greedy-graph-growing attempts for the
	// initial bisection; the lowest-cut balanced attempt wins. Default 6:
	// the balanced-attempt preference (see initialBisection) discards
	// overweight trials, so a few extra attempts keep the candidate pool
	// for the cut comparison as large as it was when every trial competed.
	InitTrials int
	// RefinePasses bounds the number of FM passes per level. Default 8.
	RefinePasses int
	// Matching selects the coarsening matching strategy; HeavyEdgeMatching
	// (default) is what METIS uses, RandomMatching is kept as an ablation.
	Matching MatchingStrategy
	// Workers bounds the goroutines of the parallel recursive bisection:
	// the two branches of each bisection above parallelMinVerts vertices
	// run as par.Limiter fork-join tasks, so at most Workers goroutines
	// are live regardless of recursion depth (0 = GOMAXPROCS, 1 runs the
	// same recursion inline). Results are identical at every worker
	// count because each branch derives its own deterministic RNG seed
	// and writes a disjoint slice of the part assignment. The paper notes
	// (§4.7) that its reordering implementations are serial and sees
	// parallelisation as an avenue for improvement; this is that avenue.
	Workers int
	// Cancel, when non-nil, is polled at every bisection branch, coarsening
	// level, initial-bisection trial and refinement pass; once it is closed
	// the partitioner unwinds promptly. The part assignment returned after
	// a cancellation is incomplete and must be discarded — the context-
	// aware entry point (reorder.ComputeCtx) does so and surfaces
	// the context's error instead. A nil channel never cancels, and an
	// uncancelled run is byte-identical with or without the field set.
	Cancel <-chan struct{}
	// Obs, when non-nil, receives per-level phase timings from every
	// bisection — partition/coarsen, partition/initial and
	// partition/refine histogram observations — the multilevel breakdown
	// of where a GP/ND ordering's time goes. Metrics only; no event-log
	// traffic, so deep recursions stay cheap. Nil disables timing
	// entirely (the clock is not even read).
	Obs *obs.Obs
}

// MatchingStrategy selects how vertices are matched during coarsening.
type MatchingStrategy int

// Coarsening matching strategies.
const (
	HeavyEdgeMatching MatchingStrategy = iota
	RandomMatching
)

func (o Options) withDefaults() Options {
	if o.Imbalance == 0 {
		o.Imbalance = 0.03
	}
	if o.CoarsenTo == 0 {
		o.CoarsenTo = 64
	}
	if o.InitTrials == 0 {
		o.InitTrials = 6
	}
	if o.RefinePasses == 0 {
		o.RefinePasses = 8
	}
	return o
}

// KWay partitions g into k parts by recursive bisection, minimising edge
// cut subject to the balance tolerance. It returns the part id of every
// vertex and the achieved edge cut (sum of weights of edges whose
// endpoints land in different parts).
func KWay(g *graph.Graph, k int, opts Options) ([]int32, int, error) {
	if k < 1 {
		return nil, 0, fmt.Errorf("partition: k must be >= 1, got %d", k)
	}
	opts = opts.withDefaults()
	part := make([]int32, g.N)
	if k == 1 {
		return part, 0, nil
	}
	verts := make([]int32, g.N)
	for i := range verts {
		verts[i] = int32(i)
	}
	recursiveBisect(g, verts, 0, k, part, opts, opts.Seed, par.NewLimiter(opts.Workers))
	if par.Canceled(opts.Cancel) {
		return nil, 0, context.Canceled
	}
	return part, EdgeCut(g, part), nil
}

// parallelMinVerts is the branch size below which recursiveBisect stops
// forking: small subproblems recurse inline because the fork bookkeeping
// costs more than it recovers.
const parallelMinVerts = 4096

// recursiveBisect partitions the subgraph induced by verts into parts
// firstPart … firstPart+k-1, writing assignments into part. Each branch
// derives its own RNG from seed, so the serial and parallel executions
// produce identical partitions. The two sub-branches write to disjoint
// entries of part, making the parallel recursion race-free; lim bounds
// the live goroutines to the configured worker count (a nil lim recurses
// serially).
func recursiveBisect(g *graph.Graph, verts []int32, firstPart, k int, part []int32, opts Options, seed int64, lim *par.Limiter) {
	if par.Canceled(opts.Cancel) {
		return
	}
	if k == 1 {
		for _, v := range verts {
			part[v] = int32(firstPart)
		}
		return
	}
	rng := rand.New(rand.NewSource(seed))
	sub, orig := graph.InducedSubgraph(g, verts)
	kLeft := (k + 1) / 2
	frac := float64(kLeft) / float64(k)
	side := Bisect(sub, frac, opts, rng)
	var left, right []int32
	for i, s := range side {
		if s == 0 {
			left = append(left, orig[i])
		} else {
			right = append(right, orig[i])
		}
	}
	leftSeed := seed*2654435761 + 1
	rightSeed := seed*2654435761 + 2
	if lim != nil && len(verts) > parallelMinVerts {
		lim.Fork(
			func() { recursiveBisect(g, left, firstPart, kLeft, part, opts, leftSeed, lim) },
			func() { recursiveBisect(g, right, firstPart+kLeft, k-kLeft, part, opts, rightSeed, lim) })
		return
	}
	recursiveBisect(g, left, firstPart, kLeft, part, opts, leftSeed, lim)
	recursiveBisect(g, right, firstPart+kLeft, k-kLeft, part, opts, rightSeed, lim)
}

// EdgeCut returns the total weight of edges crossing between different
// parts under the given assignment.
func EdgeCut(g *graph.Graph, part []int32) int {
	cut := 0
	for u := 0; u < g.N; u++ {
		for k := g.Ptr[u]; k < g.Ptr[u+1]; k++ {
			if part[g.Adj[k]] != part[u] {
				cut += g.EdgeWeight(k)
			}
		}
	}
	return cut / 2
}

// PartWeights returns the total vertex weight of each of the k parts.
func PartWeights(g *graph.Graph, part []int32, k int) []int {
	w := make([]int, k)
	for v := 0; v < g.N; v++ {
		w[part[v]] += g.VertexWeight(v)
	}
	return w
}

// ImbalanceFactor returns max part weight divided by the average part
// weight, the balance criterion the study reports.
func ImbalanceFactor(g *graph.Graph, part []int32, k int) float64 {
	w := PartWeights(g, part, k)
	total, maxw := 0, 0
	for _, x := range w {
		total += x
		if x > maxw {
			maxw = x
		}
	}
	if total == 0 {
		return 1
	}
	return float64(maxw) * float64(k) / float64(total)
}
