// Package graph provides the undirected adjacency-graph substrate used by
// the traversal- and partitioning-based reorderings: CSR-style adjacency
// storage, breadth-first level structures, connected components, and the
// George-Liu pseudo-peripheral vertex finder.
package graph

import (
	"fmt"

	"sparseorder/internal/par"
)

// Graph is an undirected graph in adjacency-list (CSR) form. Edges appear
// in both endpoints' lists; self-loops are never stored.
type Graph struct {
	N      int
	Ptr    []int
	Adj    []int32
	VWgt   []int32 // optional vertex weights (nil means unit weights)
	EWgt   []int32 // optional edge weights aligned with Adj (nil means unit)
	degMax int
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.Adj) / 2 }

// Degree returns the number of neighbours of vertex v.
func (g *Graph) Degree(v int) int { return g.Ptr[v+1] - g.Ptr[v] }

// MaxDegree returns the largest vertex degree. Graphs built by
// FromMatrixSymmetrizedWorkers and InducedSubgraph carry the value
// precomputed; for hand-assembled Graph values the scan result is
// returned without being cached. Either way MaxDegree never mutates the
// graph, so concurrent callers sharing one graph — as the
// component-parallel Cuthill-McKee does — are safe.
func (g *Graph) MaxDegree() int {
	if g.degMax > 0 {
		return g.degMax
	}
	m := 0
	for v := 0; v < g.N; v++ {
		if d := g.Degree(v); d > m {
			m = d
		}
	}
	return m
}

// Neighbors returns the adjacency list of v. The slice aliases graph
// storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 { return g.Adj[g.Ptr[v]:g.Ptr[v+1]] }

// VertexWeight returns the weight of v (1 if the graph is unweighted).
func (g *Graph) VertexWeight(v int) int {
	if g.VWgt == nil {
		return 1
	}
	return int(g.VWgt[v])
}

// TotalVertexWeight returns the sum of all vertex weights.
func (g *Graph) TotalVertexWeight() int {
	if g.VWgt == nil {
		return g.N
	}
	t := 0
	for _, w := range g.VWgt {
		t += int(w)
	}
	return t
}

// EdgeWeight returns the weight of the edge stored at adjacency slot k.
func (g *Graph) EdgeWeight(k int) int {
	if g.EWgt == nil {
		return 1
	}
	return int(g.EWgt[k])
}

// Validate checks the structural invariants: symmetric adjacency, no
// self-loops, in-range indices.
func (g *Graph) Validate() error {
	if len(g.Ptr) != g.N+1 {
		return fmt.Errorf("graph: Ptr length %d, want %d", len(g.Ptr), g.N+1)
	}
	if g.Ptr[0] != 0 || g.Ptr[g.N] != len(g.Adj) {
		return fmt.Errorf("graph: inconsistent Ptr bounds")
	}
	type edge struct{ u, v int32 }
	count := make(map[edge]int, len(g.Adj))
	for u := 0; u < g.N; u++ {
		for k := g.Ptr[u]; k < g.Ptr[u+1]; k++ {
			v := g.Adj[k]
			if v < 0 || int(v) >= g.N {
				return fmt.Errorf("graph: neighbour %d of %d out of range", v, u)
			}
			if int(v) == u {
				return fmt.Errorf("graph: self-loop at %d", u)
			}
			count[edge{int32(u), v}]++
		}
	}
	for e, c := range count {
		if count[edge{e.v, e.u}] != c {
			return fmt.Errorf("graph: asymmetric adjacency between %d and %d", e.u, e.v)
		}
	}
	return nil
}

// BFSResult is a breadth-first level structure rooted at Root.
type BFSResult struct {
	Root   int
	Order  []int32 // vertices in visit order
	Level  []int32 // level of each visited vertex; -1 if unreached
	Levels [][]int32
}

// Depth returns the eccentricity of the root within its component.
func (r *BFSResult) Depth() int { return len(r.Levels) - 1 }

// Clear resets Level to -1 at every vertex in Order, which restores a
// level scratch for the next traversal in O(|Order|) instead of O(g.N).
func (r *BFSResult) Clear() {
	for _, v := range r.Order {
		r.Level[v] = -1
	}
}

// NewLevelScratch returns a level array for traversals of a graph with n
// vertices, with every entry -1.
func NewLevelScratch(n int) []int32 {
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	return level
}

// BFS computes a breadth-first level structure from root, restricted to
// root's connected component. A non-nil scratch (length g.N) is used as
// the level array and must hold -1 at every vertex of root's component:
// a fresh NewLevelScratch, or one whose previous traversal was undone
// with Clear. A traversal then costs O(size of the component), however
// many components share the scratch. A nil scratch allocates one.
func BFS(g *Graph, root int, scratch []int32) *BFSResult {
	return BFSCancel(g, root, scratch, nil)
}

// bfsCheckEvery is the number of frontier vertices expanded between
// cancellation checks in BFSCancel: cancellation latency is bounded by
// that many adjacency scans, while the per-vertex overhead stays one
// counter increment.
const bfsCheckEvery = 4096

// BFSCancel is BFS with a cooperative cancellation hook: every
// bfsCheckEvery expanded frontier vertices it polls done and, when the
// channel is closed, returns the partial level structure built so far;
// Clear still undoes exactly the levels it set. Callers observing
// cancellation must discard the result. A nil done never cancels, making
// BFSCancel(g, root, scratch, nil) exactly BFS.
func BFSCancel(g *Graph, root int, scratch []int32, done <-chan struct{}) *BFSResult {
	level := scratch
	if level == nil {
		level = NewLevelScratch(g.N)
	}
	// The visit order grows with the component instead of being sized to
	// the whole graph, so traversing a small component allocates little.
	order := make([]int32, 1, 8)
	order[0] = int32(root)
	level[root] = 0
	var levels [][]int32
	head := 0
	sinceCheck := 0
	for head < len(order) {
		levelStart := head
		cur := level[order[head]]
		for head < len(order) && level[order[head]] == cur {
			head++
		}
		frontier := order[levelStart:head]
		levels = append(levels, frontier)
		for _, u := range frontier {
			if sinceCheck++; sinceCheck >= bfsCheckEvery {
				sinceCheck = 0
				if par.Canceled(done) {
					return &BFSResult{Root: root, Order: order, Level: level, Levels: levels}
				}
			}
			for _, v := range g.Neighbors(int(u)) {
				if level[v] < 0 {
					level[v] = cur + 1
					order = append(order, v)
				}
			}
		}
	}
	return &BFSResult{Root: root, Order: order, Level: level, Levels: levels}
}

// Components returns the connected components of g, each as a list of
// vertices, along with a component id per vertex.
func Components(g *Graph) ([][]int32, []int32) {
	id := make([]int32, g.N)
	for i := range id {
		id[i] = -1
	}
	var comps [][]int32
	queue := make([]int32, 0, g.N)
	for s := 0; s < g.N; s++ {
		if id[s] >= 0 {
			continue
		}
		c := int32(len(comps))
		queue = queue[:0]
		queue = append(queue, int32(s))
		id[s] = c
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range g.Neighbors(int(u)) {
				if id[v] < 0 {
					id[v] = c
					queue = append(queue, v)
				}
			}
		}
		comp := make([]int32, len(queue))
		copy(comp, queue)
		comps = append(comps, comp)
	}
	return comps, id
}

// PseudoPeripheral finds a pseudo-peripheral vertex of the component
// containing start, using the George-Liu algorithm: repeatedly root a BFS
// at a minimum-degree vertex of the deepest last level until the
// eccentricity stops growing. It returns the vertex and its final level
// structure. scratch follows the BFS contract; every round runs in it, so
// on return it holds the levels of the last round, rooted at the
// minimum-degree vertex of the returned structure's deepest level, and
// Clear on the returned structure restores it (all rounds visit the same
// component).
func PseudoPeripheral(g *Graph, start int, scratch []int32) (int, *BFSResult) {
	if scratch == nil {
		scratch = NewLevelScratch(g.N)
	}
	return PseudoPeripheralFrom(g, BFS(g, start, scratch), scratch, nil)
}

// PseudoPeripheralFrom continues the George-Liu search from a completed
// first round r, so a caller that already traversed the component (to
// discover it) does not pay for that round twice. Later rounds run in
// scratch, which must hold -1 at the component's vertices unless it is
// r.Level; r.Level is cleared before the second round. On return scratch
// holds the last round's levels at exactly the component's vertices.
// done is polled between (and, via BFSCancel, inside) the rounds; on
// cancellation the current candidate is returned, and callers observing
// cancellation must discard it.
func PseudoPeripheralFrom(g *Graph, r *BFSResult, scratch []int32, done <-chan struct{}) (int, *BFSResult) {
	for {
		if par.Canceled(done) {
			return r.Root, r
		}
		last := r.Levels[len(r.Levels)-1]
		next := int(last[0])
		for _, v := range last {
			if g.Degree(int(v)) < g.Degree(next) {
				next = int(v)
			}
		}
		r.Clear()
		rNext := BFSCancel(g, next, scratch, done)
		if rNext.Depth() <= r.Depth() {
			return r.Root, r
		}
		r = rNext
	}
}

// InducedSubgraph returns the subgraph induced by the given vertices along
// with the mapping from subgraph vertex index to original vertex. Vertex
// and edge weights are carried over when present.
func InducedSubgraph(g *Graph, verts []int32) (*Graph, []int32) {
	local := make(map[int32]int32, len(verts))
	for i, v := range verts {
		local[v] = int32(i)
	}
	sub := &Graph{N: len(verts), Ptr: make([]int, len(verts)+1)}
	if g.VWgt != nil {
		sub.VWgt = make([]int32, len(verts))
	}
	var adj []int32
	var ewgt []int32
	for i, v := range verts {
		if g.VWgt != nil {
			sub.VWgt[i] = g.VWgt[v]
		}
		for k := g.Ptr[v]; k < g.Ptr[v+1]; k++ {
			if lu, ok := local[g.Adj[k]]; ok {
				adj = append(adj, lu)
				if g.EWgt != nil {
					ewgt = append(ewgt, g.EWgt[k])
				}
			}
		}
		sub.Ptr[i+1] = len(adj)
		if d := sub.Ptr[i+1] - sub.Ptr[i]; d > sub.degMax {
			sub.degMax = d
		}
	}
	sub.Adj = adj
	if g.EWgt != nil {
		sub.EWgt = ewgt
	}
	orig := make([]int32, len(verts))
	copy(orig, verts)
	return sub, orig
}
