package reorder

import (
	"sort"

	"sparseorder/internal/graph"
	"sparseorder/internal/sparse"
)

// cuthillMcKeeSerial is the vertex-by-vertex Cuthill-McKee sweep: each
// unvisited vertex's component is ordered as the sweep reaches it, from a
// root found by a fresh search, and appended to one permutation. It is
// kept only as the differential oracle for the discovery-then-pool
// cuthillMcKee.
func cuthillMcKeeSerial(g *graph.Graph, strategy StartStrategy) sparse.Perm {
	perm := make(sparse.Perm, 0, g.N)
	visited := make([]bool, g.N)
	level := graph.NewLevelScratch(g.N)
	for s := 0; s < g.N; s++ {
		if visited[s] {
			continue
		}
		start := s
		if strategy == PseudoPeripheralStart {
			var r *graph.BFSResult
			start, r = graph.PseudoPeripheral(g, s, level)
			r.Clear()
		} else {
			r := graph.BFS(g, s, level)
			for _, v := range r.Order {
				if g.Degree(int(v)) < g.Degree(start) {
					start = int(v)
				}
			}
			r.Clear()
		}
		head := len(perm)
		perm = append(perm, start)
		visited[start] = true
		for ; head < len(perm); head++ {
			var neigh []int32
			for _, u := range g.Neighbors(perm[head]) {
				if !visited[u] {
					visited[u] = true
					neigh = append(neigh, u)
				}
			}
			sort.Slice(neigh, func(i, j int) bool {
				di, dj := g.Degree(int(neigh[i])), g.Degree(int(neigh[j]))
				if di != dj {
					return di < dj
				}
				return neigh[i] < neigh[j]
			})
			for _, u := range neigh {
				perm = append(perm, int(u))
			}
		}
	}
	return perm
}
