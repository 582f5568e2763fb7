package hypergraph

import (
	"math/rand"

	"sparseorder/internal/obs"
	"sparseorder/internal/par"
)

// Options control the hypergraph partitioner; zero values take defaults.
type Options struct {
	Seed         int64
	Imbalance    float64 // default 0.03
	CoarsenTo    int     // default 64
	InitTrials   int     // default 4
	RefinePasses int     // default 6
	// Workers bounds the goroutines of the parallel recursive bisection
	// in KWay and KWayConnectivity (0 = GOMAXPROCS, 1 runs the same
	// recursion inline). Every branch derives its own deterministic RNG
	// seed and writes a disjoint slice of the part assignment, so results
	// are byte-identical at any worker count.
	Workers int
	// Cancel, when non-nil, is polled at every bisection branch, coarsening
	// level, initial trial and refinement pass; once closed the partitioner
	// unwinds promptly. The assignment returned after a cancellation is
	// incomplete and must be discarded — the context-aware entry point
	// (reorder.ComputeCtx) does so and surfaces the context's error instead. A nil channel never
	// cancels, and an uncancelled run is byte-identical either way.
	Cancel <-chan struct{}
	// Obs, when non-nil, receives per-level phase timings from every
	// bisection as hypergraph/coarsen, hypergraph/initial and
	// hypergraph/refine duration histograms (metrics only, no event-log
	// traffic). Nil disables timing entirely.
	Obs *obs.Obs
}

func (o Options) withDefaults() Options {
	if o.Imbalance == 0 {
		o.Imbalance = 0.03
	}
	if o.CoarsenTo == 0 {
		o.CoarsenTo = 64
	}
	if o.InitTrials == 0 {
		o.InitTrials = 4
	}
	if o.RefinePasses == 0 {
		o.RefinePasses = 6
	}
	return o
}

// Bisect splits the hypergraph's vertices into two sides, side 0 receiving
// roughly frac of the total vertex weight, minimising the cut-net metric
// through the full multilevel scheme.
func Bisect(h *Hypergraph, frac float64, opts Options, rng *rand.Rand) []uint8 {
	opts = opts.withDefaults()
	if h.V == 0 {
		return nil
	}
	tm := opts.Obs.Phase("hypergraph/coarsen").Start()
	levels := coarsen(h, opts.CoarsenTo, rng, opts.Cancel)
	tm.Stop()
	coarsest := h
	if len(levels) > 0 {
		coarsest = levels[len(levels)-1].coarse
	}
	tm = opts.Obs.Phase("hypergraph/initial").Start()
	side := initialBisection(coarsest, frac, opts, rng)
	tm.Stop()
	tm = opts.Obs.Phase("hypergraph/refine").Start()
	fmRefine(coarsest, side, frac, opts)
	for i := len(levels) - 1; i >= 0; i-- {
		if par.Canceled(opts.Cancel) {
			tm.Stop()
			return make([]uint8, h.V)
		}
		lv := levels[i]
		fineSide := make([]uint8, lv.fine.V)
		for v := 0; v < lv.fine.V; v++ {
			fineSide[v] = side[lv.cmap[v]]
		}
		side = fineSide
		fmRefine(lv.fine, side, frac, opts)
	}
	tm.Stop()
	if len(side) != h.V {
		// Cancelled before uncoarsening finished: return a well-formed (all
		// zero) assignment; the caller discards it once it observes Cancel.
		return make([]uint8, h.V)
	}
	return side
}

// initialBisection grows side 0 by net-connectivity BFS from random seeds
// and keeps the trial with the fewest cut nets.
func initialBisection(h *Hypergraph, frac float64, opts Options, rng *rand.Rand) []uint8 {
	total := h.TotalVertexWeight()
	target := int(frac * float64(total))
	best := make([]uint8, h.V)
	bestCut := -1
	trial := make([]uint8, h.V)
	for t := 0; t < opts.InitTrials; t++ {
		if t > 0 && par.Canceled(opts.Cancel) {
			break // keep the best trial so far; the caller bails out next check
		}
		for i := range trial {
			trial[i] = 1
		}
		visited := make([]bool, h.V)
		netDone := make([]bool, h.Nets)
		start := rng.Intn(h.V)
		queue := []int32{int32(start)}
		visited[start] = true
		w := 0
		for head := 0; head < len(queue) && w < target; head++ {
			v := queue[head]
			trial[v] = 0
			w += h.VertexWeight(int(v))
			for _, n := range h.NetsOf(int(v)) {
				if netDone[n] {
					continue
				}
				netDone[n] = true
				for _, u := range h.Pins(int(n)) {
					if !visited[u] {
						visited[u] = true
						queue = append(queue, u)
					}
				}
			}
		}
		for v := 0; v < h.V && w < target; v++ {
			if trial[v] == 1 {
				trial[v] = 0
				w += h.VertexWeight(v)
			}
		}
		part := make([]int32, h.V)
		for v, s := range trial {
			part[v] = int32(s)
		}
		cut := CutNet(h, part)
		if bestCut < 0 || cut < bestCut {
			bestCut = cut
			copy(best, trial)
		}
	}
	return best
}

type hEntry struct {
	v    int32
	gain int
}

type hHeap []hEntry

func (h hHeap) Len() int           { return len(h) }
func (h hHeap) Less(i, j int) bool { return h[i].gain > h[j].gain }
func (h hHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }

func hHeapInit(h *hHeap) {
	n := h.Len()
	for i := n/2 - 1; i >= 0; i-- {
		hHeapDown(h, i, n)
	}
}

func hHeapPush(h *hHeap, e hEntry) {
	*h = append(*h, e)
	j := h.Len() - 1
	for {
		i := (j - 1) / 2
		if i == j || !h.Less(j, i) {
			break
		}
		h.Swap(i, j)
		j = i
	}
}

func hHeapPop(h *hHeap) hEntry {
	n := h.Len() - 1
	h.Swap(0, n)
	hHeapDown(h, 0, n)
	old := *h
	e := old[n]
	*h = old[:n]
	return e
}

func hHeapDown(h *hHeap, i0, n int) {
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

// fmRefine runs FM passes on the bisection under the cut-net objective.
// The gain of moving v is (nets that become internal) - (nets that become
// cut), maintained from per-net side pin counts.
func fmRefine(h *Hypergraph, side []uint8, frac float64, opts Options) {
	total := h.TotalVertexWeight()
	maxW := [2]int{
		int(float64(total) * frac * (1 + opts.Imbalance)),
		int(float64(total) * (1 - frac) * (1 + opts.Imbalance)),
	}
	if maxW[0] <= 0 {
		maxW[0] = 1
	}
	if maxW[1] <= 0 {
		maxW[1] = 1
	}
	for pass := 0; pass < opts.RefinePasses; pass++ {
		if par.Canceled(opts.Cancel) {
			return
		}
		if !fmPass(h, side, maxW) {
			break
		}
	}
}

func fmPass(h *Hypergraph, side []uint8, maxW [2]int) bool {
	// count[n][s] = pins of net n currently on side s.
	count := make([][2]int32, h.Nets)
	for n := 0; n < h.Nets; n++ {
		for _, v := range h.Pins(n) {
			count[n][side[v]]++
		}
	}
	w := [2]int{}
	for v := 0; v < h.V; v++ {
		w[side[v]] += h.VertexWeight(v)
	}

	gainOf := func(v int) int {
		g := 0
		s := side[v]
		for _, n := range h.NetsOf(v) {
			c := count[n]
			size := c[0] + c[1]
			if size < 2 {
				continue
			}
			if c[1-s] == 0 {
				g-- // currently internal; the move cuts it
			} else if c[s] == 1 {
				g++ // v is the last pin on s; the move uncuts it
			}
		}
		return g
	}

	// Only boundary vertices (pins of cut nets) can have positive gain, so
	// the pass restricts attention to them, as PaToH's boundary FM does.
	isBoundary := make([]bool, h.V)
	for n := 0; n < h.Nets; n++ {
		if count[n][0] > 0 && count[n][1] > 0 {
			for _, v := range h.Pins(n) {
				isBoundary[v] = true
			}
		}
	}
	gain := make([]int, h.V)
	locked := make([]bool, h.V)
	pq := &hHeap{}
	for v := 0; v < h.V; v++ {
		if !isBoundary[v] {
			continue
		}
		gain[v] = gainOf(v)
		*pq = append(*pq, hEntry{int32(v), gain[v]})
	}
	hHeapInit(pq)

	type move struct{ v int32 }
	var moves []move
	cumGain, bestGain, bestIdx := 0, 0, -1

	for pq.Len() > 0 {
		e := hHeapPop(pq)
		v := int(e.v)
		if locked[v] || e.gain != gain[v] {
			continue
		}
		to := 1 - side[v]
		if w[to]+h.VertexWeight(v) > maxW[to] {
			continue
		}
		locked[v] = true
		w[side[v]] -= h.VertexWeight(v)
		// Update net counts, then refresh gains of the affected pins. Very
		// large nets are skipped in the gain refresh (their cut state almost
		// never flips from one move); stale heap entries are discarded on pop.
		const maxUpdateNetSize = 128
		for _, n := range h.NetsOf(v) {
			count[n][side[v]]--
			count[n][to]++
			pins := h.Pins(int(n))
			if len(pins) > maxUpdateNetSize {
				continue
			}
			for _, u := range pins {
				if !locked[u] {
					gain[u] = gainOf(int(u))
					hHeapPush(pq, hEntry{u, gain[u]})
				}
			}
		}
		side[v] = to
		w[to] += h.VertexWeight(v)
		cumGain += e.gain
		moves = append(moves, move{int32(v)})
		if cumGain > bestGain {
			bestGain = cumGain
			bestIdx = len(moves) - 1
		}
	}

	for i := len(moves) - 1; i > bestIdx; i-- {
		v := moves[i].v
		s := side[v]
		w[s] -= h.VertexWeight(int(v))
		side[v] = 1 - s
		w[side[v]] += h.VertexWeight(int(v))
	}
	return bestGain > 0
}
