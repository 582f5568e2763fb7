package partition

import (
	"math/rand"
	"testing"

	"sparseorder/internal/gen"
	"sparseorder/internal/graph"
	"sparseorder/internal/sparse"
)

// The reference Fiduccia-Mattheyses pass and its swap-based heap, kept
// only as the differential oracle for fmPassFast: fmPass recomputes every
// touched neighbour's gain from its adjacency and uses container/heap-style
// swaps, the textbook form of the algorithm.

// refEntry is a reference heap element; stale entries are discarded
// lazily on pop.
type refEntry struct {
	v    int32
	gain int
}

type refHeap []refEntry

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].gain > h[j].gain }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }

func fmPass(g *graph.Graph, side []uint8, gain []int, locked []bool, w *[2]int, max0, max1 int) bool {
	// Gain of moving v to the other side: external - internal edge weight.
	computeGain := func(v int) int {
		ext, inn := 0, 0
		for k := g.Ptr[v]; k < g.Ptr[v+1]; k++ {
			if side[g.Adj[k]] != side[v] {
				ext += g.EdgeWeight(k)
			} else {
				inn += g.EdgeWeight(k)
			}
		}
		return ext - inn
	}

	h := &refHeap{}
	for v := 0; v < g.N; v++ {
		locked[v] = false
		gain[v] = computeGain(v)
		// Only boundary (or positive-gain) vertices are worth queueing.
		if gain[v] > 0 || isBoundary(g, side, v) {
			*h = append(*h, refEntry{int32(v), gain[v]})
		}
	}
	refHeapInit(h)

	type move struct {
		v    int32
		gain int
	}
	var moves []move
	cumGain, bestGain, bestIdx := 0, 0, -1
	maxW := [2]int{max0, max1}

	for h.Len() > 0 {
		e := refHeapPop(h)
		v := int(e.v)
		if locked[v] || e.gain != gain[v] {
			continue // stale entry
		}
		to := 1 - side[v]
		if w[to]+g.VertexWeight(v) > maxW[to] {
			continue // move would violate balance
		}
		// Commit the tentative move.
		locked[v] = true
		w[side[v]] -= g.VertexWeight(v)
		side[v] = to
		w[to] += g.VertexWeight(v)
		cumGain += e.gain
		moves = append(moves, move{int32(v), e.gain})
		if cumGain > bestGain {
			bestGain = cumGain
			bestIdx = len(moves) - 1
		}
		for k := g.Ptr[v]; k < g.Ptr[v+1]; k++ {
			u := g.Adj[k]
			if locked[u] {
				continue
			}
			gain[u] = computeGain(int(u))
			refHeapPush(h, refEntry{u, gain[u]})
		}
	}

	// Roll back moves past the best prefix.
	for i := len(moves) - 1; i > bestIdx; i-- {
		v := moves[i].v
		w[side[v]] -= g.VertexWeight(int(v))
		side[v] = 1 - side[v]
		w[side[v]] += g.VertexWeight(int(v))
	}
	return bestGain > 0
}

func isBoundary(g *graph.Graph, side []uint8, v int) bool {
	for k := g.Ptr[v]; k < g.Ptr[v+1]; k++ {
		if side[g.Adj[k]] != side[v] {
			return true
		}
	}
	return false
}

// Minimal container/heap re-implementation specialised to refHeap.
func refHeapInit(h *refHeap) {
	n := h.Len()
	for i := n/2 - 1; i >= 0; i-- {
		refHeapDown(h, i, n)
	}
}

func refHeapPush(h *refHeap, e refEntry) {
	*h = append(*h, e)
	refHeapUp(h, h.Len()-1)
}

func refHeapPop(h *refHeap) refEntry {
	n := h.Len() - 1
	h.Swap(0, n)
	refHeapDown(h, 0, n)
	old := *h
	e := old[n]
	*h = old[:n]
	return e
}

func refHeapUp(h *refHeap, j int) {
	for {
		i := (j - 1) / 2
		if i == j || !h.Less(j, i) {
			break
		}
		h.Swap(i, j)
		j = i
	}
}

func refHeapDown(h *refHeap, i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.Less(j2, j1) {
			j = j2
		}
		if !h.Less(j, i) {
			break
		}
		h.Swap(i, j)
		i = j
	}
}

// fmCorpus is the edge corpus the FM differential tests run over: meshes,
// a random graph, disconnected pieces, isolated vertices and two cliques
// joined by one edge. The weighted variant gives every edge (both
// directions alike) and vertex a random weight, exercising the
// weight-scaled gain updates.
func fmCorpus(t *testing.T, weighted bool) map[string]*graph.Graph {
	t.Helper()
	build := func(a *graph.Graph, seed int64) *graph.Graph {
		if !weighted {
			return a
		}
		rng := rand.New(rand.NewSource(seed))
		g := &graph.Graph{N: a.N, Ptr: a.Ptr, Adj: a.Adj, VWgt: make([]int32, a.N), EWgt: make([]int32, len(a.Adj))}
		for v := range g.VWgt {
			g.VWgt[v] = int32(1 + rng.Intn(4))
		}
		for u := 0; u < g.N; u++ {
			for k := g.Ptr[u]; k < g.Ptr[u+1]; k++ {
				if v := int(g.Adj[k]); v > u {
					wt := int32(1 + rng.Intn(9))
					g.EWgt[k] = wt
					for kk := g.Ptr[v]; kk < g.Ptr[v+1]; kk++ {
						if int(g.Adj[kk]) == u {
							g.EWgt[kk] = wt
						}
					}
				}
			}
		}
		return g
	}
	fromMatrix := func(a *sparse.CSR) *graph.Graph {
		g, err := graph.FromMatrixSymmetrizedWorkers(a, 1)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	out := map[string]*graph.Graph{}
	for i, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", gridGraph(t, 17, 13)},
		{"grid3d", fromMatrix(gen.Scramble(gen.Grid3D(6, 7, 5), 3))},
		{"rmat", fromMatrix(gen.RMAT(8, 6, 4))},
		{"cliques", twoCliquesBridge(t, 9)},
		{"isolated", &graph.Graph{N: 5, Ptr: make([]int, 6)}},
		// Two paths 0-1-2 and 3-4.
		{"disconnected", &graph.Graph{N: 5, Ptr: []int{0, 1, 3, 4, 5, 6}, Adj: []int32{1, 0, 2, 1, 4, 3}}},
	} {
		out[c.name] = build(c.g, int64(i))
	}
	return out
}

// TestFMPassFastMatchesReference drives the production pass and the
// reference pass from the same random bisections, pass after pass, and
// requires identical sides, side weights, gains and improvement flags.
func TestFMPassFastMatchesReference(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		for name, g := range fmCorpus(t, weighted) {
			rng := rand.New(rand.NewSource(7))
			total := g.TotalVertexWeight()
			for trial := 0; trial < 8; trial++ {
				sideRef := make([]uint8, g.N)
				for v := range sideRef {
					sideRef[v] = uint8(rng.Intn(2))
				}
				sideFast := append([]uint8(nil), sideRef...)
				var wRef [2]int
				for v := 0; v < g.N; v++ {
					wRef[sideRef[v]] += g.VertexWeight(v)
				}
				wFast := wRef
				max0, max1 := total*6/10+1, total*6/10+1
				gainRef, gainFast := make([]int, g.N), make([]int, g.N)
				lockRef, lockFast := make([]bool, g.N), make([]bool, g.N)
				var st fmState
				for pass := 0; pass < 6; pass++ {
					impRef := fmPass(g, sideRef, gainRef, lockRef, &wRef, max0, max1)
					impFast := fmPassFast(g, sideFast, gainFast, lockFast, &wFast, max0, max1, &st)
					if impRef != impFast || wRef != wFast {
						t.Fatalf("weighted=%v %s trial %d pass %d: improved %v/%v weights %v/%v",
							weighted, name, trial, pass, impRef, impFast, wRef, wFast)
					}
					for v := range sideRef {
						if sideRef[v] != sideFast[v] || gainRef[v] != gainFast[v] {
							t.Fatalf("weighted=%v %s trial %d pass %d: vertex %d side %d/%d gain %d/%d",
								weighted, name, trial, pass, v, sideRef[v], sideFast[v], gainRef[v], gainFast[v])
						}
					}
					if !impRef {
						break
					}
				}
			}
		}
	}
}

// BenchmarkReorderFMPass compares one production FM pass with the
// reference pass it replaced at one worker, from the same random
// bisection of a scrambled 3-D mesh.
func BenchmarkReorderFMPass(b *testing.B) {
	g, err := graph.FromMatrixSymmetrizedWorkers(gen.Scramble(gen.Grid3D(24, 24, 24), 2), 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	side0 := make([]uint8, g.N)
	for v := range side0 {
		side0[v] = uint8(rng.Intn(2))
	}
	var w0 [2]int
	for v := range side0 {
		w0[side0[v]]++
	}
	max := g.N*6/10 + 1
	side, gain, locked := make([]uint8, g.N), make([]int, g.N), make([]bool, g.N)
	var st fmState
	for _, c := range []struct {
		name string
		pass func(w *[2]int) bool
	}{
		{"oracle", func(w *[2]int) bool { return fmPass(g, side, gain, locked, w, max, max) }},
		{"workers=1", func(w *[2]int) bool { return fmPassFast(g, side, gain, locked, w, max, max, &st) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(side, side0)
				w := w0
				c.pass(&w)
			}
		})
	}
}
