package reorder

import (
	"container/heap"

	"sparseorder/internal/graph"
	"sparseorder/internal/sparse"
)

// Sloan computes Sloan's profile-reducing ordering (Sloan 1986, the
// algorithm behind HSL's MC40): vertices are numbered by a priority that
// trades global position — the distance to the far end of a
// pseudo-diameter — against local degree, which typically beats pure
// breadth-first orderings on the profile metric of the study's Figure 5.
// Included as an extension: the paper measures profile but evaluates no
// profile-specific algorithm. The weights w1 (distance) and w2 (degree)
// default to Sloan's recommended 1 and 2 when non-positive.
func Sloan(g *graph.Graph, w1, w2 int) sparse.Perm {
	if w1 <= 0 {
		w1 = 1
	}
	if w2 <= 0 {
		w2 = 2
	}
	const (
		inactive = iota
		preactive
		active
		numbered
	)
	n := g.N
	perm := make(sparse.Perm, 0, n)
	status := make([]uint8, n)
	prio := make([]int, n)
	// Shared across components; every traversal's levels are cleared
	// after use (see graph.BFS).
	scratch := graph.NewLevelScratch(n)

	for s := 0; s < n; s++ {
		if status[s] != inactive {
			continue
		}
		// Pseudo-diameter endpoints for this component.
		start, r := graph.PseudoPeripheral(g, s, scratch)
		last := r.Levels[len(r.Levels)-1]
		end := int(last[0])
		for _, v := range last {
			if g.Degree(int(v)) < g.Degree(end) {
				end = int(v)
			}
		}
		r.Clear()
		dist := graph.BFS(g, end, scratch)
		for _, v := range r.Order {
			prio[v] = w1*int(dist.Level[v]) - w2*(g.Degree(int(v))+1)
		}
		dist.Clear()

		pq := &sloanHeap{}
		push := func(v int32) { heap.Push(pq, sloanEntry{v, prio[v]}) }
		status[start] = preactive
		push(int32(start))

		for pq.Len() > 0 {
			e := heap.Pop(pq).(sloanEntry)
			v := e.v
			if status[v] == numbered || e.prio != prio[v] {
				continue // stale entry
			}
			if status[v] == preactive {
				for _, j := range g.Neighbors(int(v)) {
					prio[j] += w2
					if status[j] == inactive {
						status[j] = preactive
					}
					push(j)
				}
			}
			perm = append(perm, int(v))
			status[v] = numbered
			for _, j := range g.Neighbors(int(v)) {
				if status[j] != preactive {
					continue
				}
				prio[j] += w2
				status[j] = active
				push(j)
				for _, k := range g.Neighbors(int(j)) {
					if status[k] == numbered {
						continue
					}
					prio[k] += w2
					if status[k] == inactive {
						status[k] = preactive
					}
					push(k)
				}
			}
		}
	}
	return perm
}

type sloanEntry struct {
	v    int32
	prio int
}

type sloanHeap []sloanEntry

func (h sloanHeap) Len() int            { return len(h) }
func (h sloanHeap) Less(i, j int) bool  { return h[i].prio > h[j].prio }
func (h sloanHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *sloanHeap) Push(x interface{}) { *h = append(*h, x.(sloanEntry)) }
func (h *sloanHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
