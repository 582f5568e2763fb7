package reorder

import (
	"slices"

	"sparseorder/internal/graph"
	"sparseorder/internal/par"
	"sparseorder/internal/sparse"
)

// StartStrategy selects how Cuthill-McKee picks the root vertex of each
// connected component. The George-Liu pseudo-peripheral finder is the
// standard choice (and the one the study's implementation uses); the
// minimum-degree start is kept as an ablation (see DESIGN.md).
type StartStrategy int

// Start strategies for Cuthill-McKee.
const (
	PseudoPeripheralStart StartStrategy = iota
	MinDegreeStart
)

// cmCheckEvery is the number of dequeued vertices between cancellation
// checks in the Cuthill-McKee BFS loop.
const cmCheckEvery = 1024

// ReverseCuthillMcKeeWorkers returns the reverse Cuthill-McKee ordering of
// g, the variant preferred in practice (paper §2.1.1): each connected
// component is traversed breadth-first from a root chosen by strategy,
// appending unvisited neighbours in ascending-degree order, and the whole
// order is reversed. Components are ordered on up to workers goroutines
// (0 = GOMAXPROCS, 1 runs the same code inline) and concatenated in
// ascending order of each component's smallest vertex, so the permutation
// is byte-identical at every worker count. The permutation is new-to-old.
func ReverseCuthillMcKeeWorkers(g *graph.Graph, strategy StartStrategy, workers int) sparse.Perm {
	return reverseCuthillMcKee(g, strategy, workers, nil)
}

// reverseCuthillMcKee is the cancellable core shared by the exported
// wrapper and the context-aware ordering dispatch.
func reverseCuthillMcKee(g *graph.Graph, strategy StartStrategy, workers int, done <-chan struct{}) sparse.Perm {
	p := cuthillMcKee(g, strategy, workers, done)
	for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// cuthillMcKee computes the (unreversed) Cuthill-McKee ordering. A
// sequential sweep discovers the components in ascending order of their
// smallest vertex: an unvisited vertex s roots a BFS that is both the
// discovery of s's component and the first round of its root search, so
// discovery adds no traversal. The components are then ordered on the
// pool, each into its precomputed slice of the permutation. done is
// polled inside every traversal, so a wedged ordering stops within
// cmCheckEvery dequeues of a cancellation and the pool goroutines exit
// promptly; a cancelled call returns a partial ordering that the caller
// must discard.
func cuthillMcKee(g *graph.Graph, strategy StartStrategy, workers int, done <-chan struct{}) sparse.Perm {
	// seen holds the discovery rounds' levels; nothing clears it before
	// the sweep ends, so during the sweep seen[v] >= 0 marks a discovered
	// vertex.
	seen := graph.NewLevelScratch(g.N)
	var comps []*graph.BFSResult
	for s := 0; s < g.N; s++ {
		if seen[s] < 0 {
			comps = append(comps, graph.BFSCancel(g, s, seen, done))
			if par.Canceled(done) {
				return nil
			}
		}
	}
	perm := make(sparse.Perm, g.N)
	offs := make([]int, len(comps))
	for c := 1; c < len(comps); c++ {
		offs[c] = offs[c-1] + len(comps[c-1].Order)
	}
	// visited is shared: each component writes only its own vertices, so
	// concurrent workers touch disjoint index sets.
	visited := make([]bool, g.N)
	w := par.Chunks(len(comps), par.Resolve(workers))
	scratch := make([]*cmScratch, w)
	par.Each(len(comps), w, func(worker, c int) {
		if par.Canceled(done) {
			return // drain remaining jobs without ordering them
		}
		if scratch[worker] == nil {
			scratch[worker] = newCMScratch(g)
		}
		r, off := comps[c], offs[c]
		cmComponent(g, r, strategy, perm[off:off:off+len(r.Order)], visited, scratch[worker], done)
	})
	return perm
}

// cmScratch is one worker's reusable Cuthill-McKee state: a BFS level
// array that holds -1 everywhere between components (so each component's
// root search costs O(component), not O(g.N)) and the neighbour buffer.
type cmScratch struct {
	level []int32
	neigh []int32
}

func newCMScratch(g *graph.Graph) *cmScratch {
	return &cmScratch{level: graph.NewLevelScratch(g.N), neigh: make([]int32, 0, g.MaxDegree())}
}

// cmComponent appends the Cuthill-McKee ordering of the component that
// the discovery BFS r traversed to perm. It touches visited only at the
// component's own vertices, so concurrent calls on distinct components
// sharing one visited slice are safe, and it leaves sc's level array as
// it found it. done is polled every cmCheckEvery dequeues (nil never
// cancels); a cancelled call returns a partial ordering that the caller
// must discard.
func cmComponent(g *graph.Graph, r *graph.BFSResult, strategy StartStrategy, perm sparse.Perm, visited []bool, sc *cmScratch, done <-chan struct{}) sparse.Perm {
	start := r.Root
	if strategy == PseudoPeripheralStart {
		start, _ = graph.PseudoPeripheralFrom(g, r, sc.level, done)
		for _, v := range r.Order {
			sc.level[v] = -1
		}
	} else {
		// Minimum-degree vertex of the component.
		for _, v := range r.Order {
			if g.Degree(int(v)) < g.Degree(start) {
				start = int(v)
			}
		}
	}
	if par.Canceled(done) {
		return perm
	}
	compStart := len(perm)
	perm = append(perm, start)
	visited[start] = true
	neigh := sc.neigh
	for head := compStart; head < len(perm); head++ {
		if (head-compStart)%cmCheckEvery == cmCheckEvery-1 && par.Canceled(done) {
			return perm
		}
		v := perm[head]
		neigh = neigh[:0]
		for _, u := range g.Neighbors(v) {
			if !visited[u] {
				visited[u] = true
				neigh = append(neigh, u)
			}
		}
		// Degree then index is a total order on distinct vertices, so the
		// result does not depend on the sorting algorithm.
		slices.SortFunc(neigh, func(x, y int32) int {
			if dx, dy := g.Degree(int(x)), g.Degree(int(y)); dx != dy {
				return dx - dy
			}
			return int(x - y)
		})
		for _, u := range neigh {
			perm = append(perm, int(u))
		}
	}
	sc.neigh = neigh
	return perm
}
