package partition

import (
	"math/rand"

	"sparseorder/internal/graph"
	"sparseorder/internal/par"
)

// Bisect splits g into two sides, with side 0 receiving roughly frac of
// the total vertex weight, using the full multilevel scheme. It returns
// side[v] ∈ {0, 1} for every vertex. With Options.Obs set, the three
// multilevel phases of this bisection land in the partition/coarsen,
// partition/initial and partition/refine duration histograms.
func Bisect(g *graph.Graph, frac float64, opts Options, rng *rand.Rand) []uint8 {
	opts = opts.withDefaults()
	if g.N == 0 {
		return nil
	}
	tm := opts.Obs.Phase("partition/coarsen").Start()
	levels := coarsen(g, opts, rng)
	tm.Stop()
	coarsest := g
	if len(levels) > 0 {
		coarsest = levels[len(levels)-1].coarse
	}
	tm = opts.Obs.Phase("partition/initial").Start()
	side := initialBisection(coarsest, frac, opts, rng)
	tm.Stop()
	tm = opts.Obs.Phase("partition/refine").Start()
	fmRefine(coarsest, side, frac, opts)
	for i := len(levels) - 1; i >= 0; i-- {
		if par.Canceled(opts.Cancel) {
			tm.Stop()
			return make([]uint8, g.N)
		}
		lv := levels[i]
		fineSide := make([]uint8, lv.fine.N)
		for v := 0; v < lv.fine.N; v++ {
			fineSide[v] = side[lv.cmap[v]]
		}
		side = fineSide
		fmRefine(lv.fine, side, frac, opts)
	}
	tm.Stop()
	if len(side) != g.N {
		// Cancelled before uncoarsening finished: return a well-formed (all
		// zero) assignment; the caller discards it once it observes Cancel.
		return make([]uint8, g.N)
	}
	return side
}

// initialBisection grows side 0 by repeated BFS region growing from random
// seeds, keeping the attempt with the lowest cut among balanced attempts.
// Balance uses the same per-side caps as fmRefine ((1+ε)·frac·total and
// (1+ε)·(1-frac)·total): an overweight trial can never be repaired by FM,
// which only vetoes moves into a full side and cannot drain one that is
// already over its cap, so a balanced trial always wins over an
// unbalanced one regardless of cut. Only when every trial is unbalanced
// (heavy-vertex overshoot on weighted graphs) does the lowest-cut
// unbalanced attempt survive as a fallback.
func initialBisection(g *graph.Graph, frac float64, opts Options, rng *rand.Rand) []uint8 {
	total := g.TotalVertexWeight()
	target := int(frac * float64(total))
	max0 := int(float64(total) * frac * (1 + opts.Imbalance))
	max1 := int(float64(total) * (1 - frac) * (1 + opts.Imbalance))
	best := make([]uint8, g.N)
	bestCut := -1
	bestBalanced := false
	trial := make([]uint8, g.N)
	for t := 0; t < opts.InitTrials; t++ {
		if t > 0 && par.Canceled(opts.Cancel) {
			break // keep the best trial so far; the caller bails out next check
		}
		for i := range trial {
			trial[i] = 1
		}
		w := 0
		start := rng.Intn(g.N)
		if t == 0 {
			start, _ = graph.PseudoPeripheral(g, start, nil)
		}
		queue := []int32{int32(start)}
		visited := make([]bool, g.N)
		visited[start] = true
		for head := 0; head < len(queue) && w < target; head++ {
			v := queue[head]
			// Growing past max0 would make the trial unrepairably overweight
			// (coarse vertices carry aggregated weights, so one grab can blow
			// the whole imbalance budget); leave v on side 1 and keep growing
			// through lighter frontier vertices instead.
			if wt := g.VertexWeight(int(v)); w+wt <= max0 {
				trial[v] = 0
				w += wt
			}
			for _, u := range g.Neighbors(int(v)) {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
				}
			}
		}
		// Disconnected graphs: the BFS may exhaust the component before
		// reaching the target weight; keep absorbing unvisited vertices.
		for v := 0; v < g.N && w < target; v++ {
			if wt := g.VertexWeight(v); trial[v] == 1 && w+wt <= max0 {
				trial[v] = 0
				w += wt
			}
		}
		cut := cutOf(g, trial)
		balanced := w <= max0 && total-w <= max1
		switch {
		case balanced && !bestBalanced,
			balanced == bestBalanced && (bestCut < 0 || cut < bestCut):
			bestCut = cut
			bestBalanced = balanced
			copy(best, trial)
		}
	}
	return best
}

func cutOf(g *graph.Graph, side []uint8) int {
	cut := 0
	for u := 0; u < g.N; u++ {
		for k := g.Ptr[u]; k < g.Ptr[u+1]; k++ {
			if side[g.Adj[k]] != side[u] {
				cut += g.EdgeWeight(k)
			}
		}
	}
	return cut / 2
}

// fmEntry is a heap element for Fiduccia-Mattheyses refinement and the
// separator's greedy cover; stale entries (whose recorded gain no longer
// matches the current gain) are discarded lazily on pop. Gains are full
// ints, so no graph's total edge weight can overflow them.
type fmEntry struct {
	v    int32
	gain int
}

// fmRefine performs boundary Fiduccia-Mattheyses passes on the bisection:
// each pass tentatively moves every vertex at most once in best-gain-first
// order subject to the balance constraint, then rolls back to the best
// prefix observed. Passes repeat until no pass improves the cut.
func fmRefine(g *graph.Graph, side []uint8, frac float64, opts Options) {
	total := g.TotalVertexWeight()
	max0 := int(float64(total) * frac * (1 + opts.Imbalance))
	max1 := int(float64(total) * (1 - frac) * (1 + opts.Imbalance))
	if max0 <= 0 {
		max0 = 1
	}
	if max1 <= 0 {
		max1 = 1
	}
	w := [2]int{}
	for v := 0; v < g.N; v++ {
		w[side[v]] += g.VertexWeight(v)
	}

	gain := make([]int, g.N)
	locked := make([]bool, g.N)
	var st fmState
	for pass := 0; pass < opts.RefinePasses; pass++ {
		if par.Canceled(opts.Cancel) {
			return
		}
		if !fmPassFast(g, side, gain, locked, &w, max0, max1, &st) {
			break
		}
	}
}

// fmState carries fmPassFast's buffers across passes so their backing
// arrays stay out of the allocator.
type fmState struct {
	heap  []fmEntry
	moves []fmEntry
}

// fmPassFast is one FM pass with the bookkeeping of the classic
// implementation: when v moves off side s, a neighbour u's gain changes by
// exactly +2·w(u,v) if u sits on s and -2·w(u,v) otherwise, so gains are
// maintained in O(1) per neighbour instead of being recomputed from u's
// whole adjacency. The hole-sifting heap breaks ties by array position
// alone, so the move sequence, and with it the bisection, is a pure
// function of the input at every worker count. It reports whether the pass
// improved the cut.
func fmPassFast(g *graph.Graph, side []uint8, gain []int, locked []bool, w *[2]int, max0, max1 int, st *fmState) bool {
	ew := g.EWgt
	edgeWeight := func(k int) int {
		if ew == nil {
			return 1
		}
		return int(ew[k])
	}

	h := st.heap[:0]
	for v := 0; v < g.N; v++ {
		locked[v] = false
		ext, inn := 0, 0
		boundary := false
		for k := g.Ptr[v]; k < g.Ptr[v+1]; k++ {
			if side[g.Adj[k]] != side[v] {
				ext += edgeWeight(k)
				boundary = true
			} else {
				inn += edgeWeight(k)
			}
		}
		gain[v] = ext - inn
		// Only boundary (or positive-gain) vertices are worth queueing.
		if gain[v] > 0 || boundary {
			h = append(h, fmEntry{int32(v), gain[v]})
		}
	}
	heapify(h)

	moves := st.moves[:0]
	cumGain, bestGain, bestIdx := 0, 0, -1
	maxW := [2]int{max0, max1}

	for len(h) > 0 {
		var e fmEntry
		e, h = heapPop(h)
		v := int(e.v)
		if locked[v] || e.gain != gain[v] {
			continue // stale entry
		}
		from := side[v]
		to := 1 - from
		if w[to]+g.VertexWeight(v) > maxW[to] {
			continue // move would violate balance
		}
		// Commit the tentative move.
		locked[v] = true
		w[from] -= g.VertexWeight(v)
		side[v] = to
		w[to] += g.VertexWeight(v)
		cumGain += e.gain
		moves = append(moves, e)
		if cumGain > bestGain {
			bestGain = cumGain
			bestIdx = len(moves) - 1
		}
		for k := g.Ptr[v]; k < g.Ptr[v+1]; k++ {
			u := g.Adj[k]
			if locked[u] {
				continue
			}
			// v left u's side (gain up) or joined it (gain down).
			if side[u] == from {
				gain[u] += 2 * edgeWeight(k)
			} else {
				gain[u] -= 2 * edgeWeight(k)
			}
			h = heapPush(h, fmEntry{u, gain[u]})
		}
	}

	// Roll back moves past the best prefix.
	for i := len(moves) - 1; i > bestIdx; i-- {
		v := moves[i].v
		w[side[v]] -= g.VertexWeight(int(v))
		side[v] = 1 - side[v]
		w[side[v]] += g.VertexWeight(int(v))
	}
	st.heap, st.moves = h, moves
	return bestGain > 0
}

// The max-heap on gain below sifts a hole instead of swapping: one write
// per level instead of three. A child replaces its parent only when its
// gain is strictly greater, so equal gains keep their array order.

// heapify establishes the heap property over h in O(len(h)).
func heapify(h []fmEntry) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		heapDown(h, i, h[i])
	}
}

// heapPop removes and returns the maximum-gain entry.
func heapPop(h []fmEntry) (fmEntry, []fmEntry) {
	e := h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	if len(h) > 0 {
		heapDown(h, 0, last)
	}
	return e, h
}

// heapDown sifts x down from slot i, moving strictly greater children up
// into the hole.
func heapDown(h []fmEntry, i int, x fmEntry) {
	n := len(h)
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].gain > h[j1].gain {
			j = j2
		}
		if h[j].gain <= x.gain {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = x
}

// heapPush appends e and sifts it up past strictly smaller parents.
func heapPush(h []fmEntry, e fmEntry) []fmEntry {
	h = append(h, e)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if e.gain <= h[i].gain {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = e
	return h
}
