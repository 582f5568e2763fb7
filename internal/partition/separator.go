package partition

import (
	"math/rand"

	"sparseorder/internal/graph"
)

// VertexSeparator computes a vertex separator of g from an edge-cut
// bisection: the boundary of the cut forms a bipartite graph, and a small
// vertex cover of that bipartite graph separates the remaining vertices.
// The cover is found greedily, repeatedly taking the boundary vertex
// incident to the most uncovered cut edges. It returns per-vertex labels:
// 0 and 1 for the two sides, 2 for the separator.
func VertexSeparator(g *graph.Graph, opts Options, rng *rand.Rand) []uint8 {
	if g.N == 0 {
		return nil
	}
	if g.N == 1 {
		return []uint8{0}
	}
	side := Bisect(g, 0.5, opts, rng)
	label := make([]uint8, g.N)
	copy(label, side)

	// Count uncovered cut edges per vertex.
	cutDeg := make([]int, g.N)
	for u := 0; u < g.N; u++ {
		for k := g.Ptr[u]; k < g.Ptr[u+1]; k++ {
			if side[g.Adj[k]] != side[u] {
				cutDeg[u]++
			}
		}
	}
	var h []fmEntry
	for v := 0; v < g.N; v++ {
		if cutDeg[v] > 0 {
			h = append(h, fmEntry{int32(v), cutDeg[v]})
		}
	}
	heapify(h)
	for len(h) > 0 {
		var e fmEntry
		e, h = heapPop(h)
		v := int(e.v)
		if label[v] == 2 || e.gain != cutDeg[v] || cutDeg[v] == 0 {
			continue
		}
		label[v] = 2
		for k := g.Ptr[v]; k < g.Ptr[v+1]; k++ {
			u := g.Adj[k]
			if label[u] != 2 && side[u] != side[v] {
				cutDeg[u]--
				if cutDeg[u] > 0 {
					h = heapPush(h, fmEntry{u, cutDeg[u]})
				}
			}
		}
		cutDeg[v] = 0
	}
	return label
}
