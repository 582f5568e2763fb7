package hypergraph

import (
	"math/rand"

	"sparseorder/internal/fmheap"
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
	visited := make([]bool, h.V)
	netDone := make([]bool, h.Nets)
	var queue []int32
	for t := 0; t < opts.InitTrials; t++ {
		if t > 0 && par.Canceled(opts.Cancel) {
			break // keep the best trial so far; the caller bails out next check
		}
		for i := range trial {
			trial[i] = 1
		}
		clear(visited)
		clear(netDone)
		start := rng.Intn(h.V)
		queue = append(queue[:0], int32(start))
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
		if cut := cutOf(h, trial); bestCut < 0 || cut < bestCut {
			bestCut = cut
			copy(best, trial)
		}
	}
	return best
}

// cutOf counts the nets of h whose pins lie on both sides of a bisection.
func cutOf(h *Hypergraph, side []uint8) int {
	cut := 0
	for n := 0; n < h.Nets; n++ {
		pins := h.Pins(n)
		for _, v := range pins {
			if side[v] != side[pins[0]] {
				cut++
				break
			}
		}
	}
	return cut
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
	var w [2]int
	for v := 0; v < h.V; v++ {
		w[side[v]] += h.VertexWeight(v)
	}
	st := newFMState(h)
	for pass := 0; pass < opts.RefinePasses; pass++ {
		if par.Canceled(opts.Cancel) {
			return
		}
		if !fmPassFast(h, side, &w, maxW, st) {
			break
		}
	}
}

// maxUpdateNetSize bounds the nets whose pins have their gains republished
// after a move. Pins of larger nets (dense columns) keep their published
// gain, whose cut state almost never flips from one move; their exact gain
// is still tracked, so the next republication through a small net is exact.
const maxUpdateNetSize = 128

// fmState carries fmPassFast's buffers across the passes of one fmRefine.
type fmState struct {
	count  [][2]int32 // count[n][s] = pins of net n on side s
	tg     []int32    // exact gain of every unlocked vertex under count
	gain   []int32    // published gain; a heap entry is live only while it matches
	locked []bool
	heap   []fmheap.Entry[int32]
	moves  []int32
}

func newFMState(h *Hypergraph) *fmState {
	return &fmState{
		count:  make([][2]int32, h.Nets),
		tg:     make([]int32, h.V),
		gain:   make([]int32, h.V),
		locked: make([]bool, h.V),
	}
}

// netGain is what a net with side counts c contributes to the gain of
// moving one of its pins off side s: -1 if the net is internal to s (the
// move cuts it), +1 if the pin is the last one on s (the move uncuts it),
// 0 otherwise. Nets with fewer than two pins can never be cut.
func netGain(c [2]int32, s uint8) int32 {
	switch {
	case c[0]+c[1] < 2:
		return 0
	case c[1-s] == 0:
		return -1
	case c[s] == 1:
		return 1
	}
	return 0
}

// fmPassFast is one boundary FM pass under the cut-net objective with
// incremental gains. A net's contribution to a pin's gain depends only on
// the pin's side and the net's two side counts, so when v moves, each of
// its nets changes the exact gain tg of every unlocked pin on one side by
// one delta. The deltas are applied net by net, in NetsOf(v) order and
// before side[v] flips, and every unlocked pin of a net of at most
// maxUpdateNetSize pins is republished and pushed after its net's update:
// the move sequence is the one the recompute-from-scratch pass produces
// (see oracle_test.go), and with it every bisection. Pins of a net must be
// distinct, as Validate requires. It reports whether the pass improved the
// cut.
func fmPassFast(h *Hypergraph, side []uint8, w *[2]int, maxW [2]int, st *fmState) bool {
	count, tg, gain, locked := st.count, st.tg, st.gain, st.locked
	clear(tg)
	clear(locked)
	for n := 0; n < h.Nets; n++ {
		var c [2]int32
		pins := h.Pins(n)
		for _, v := range pins {
			c[side[v]]++
		}
		count[n] = c
		g := [2]int32{netGain(c, 0), netGain(c, 1)}
		if g != [2]int32{} {
			for _, v := range pins {
				tg[v] += g[side[v]]
			}
		}
	}

	// Only boundary vertices (pins of cut nets) can have positive gain, so
	// the pass queues only them, as PaToH's boundary FM does.
	pq := st.heap[:0]
	for v := 0; v < h.V; v++ {
		for _, n := range h.NetsOf(v) {
			if c := count[n]; c[0] > 0 && c[1] > 0 {
				gain[v] = tg[v]
				pq = append(pq, fmheap.Entry[int32]{V: int32(v), Gain: tg[v]})
				break
			}
		}
	}
	fmheap.Heapify(pq)

	moves := st.moves[:0]
	cumGain, bestGain, bestIdx := 0, 0, -1
	for len(pq) > 0 {
		var e fmheap.Entry[int32]
		e, pq = fmheap.Pop(pq)
		v := int(e.V)
		if locked[v] || e.Gain != gain[v] {
			continue // stale entry
		}
		from := side[v]
		to := 1 - from
		wv := h.VertexWeight(v)
		if w[to]+wv > maxW[to] {
			continue // move would violate balance
		}
		locked[v] = true
		w[from] -= wv
		for _, n := range h.NetsOf(v) {
			old := count[n]
			c := old
			c[from]--
			c[to]++
			count[n] = c
			d := [2]int32{netGain(c, 0) - netGain(old, 0), netGain(c, 1) - netGain(old, 1)}
			pins := h.Pins(int(n))
			publish := len(pins) <= maxUpdateNetSize
			if !publish && d == [2]int32{} {
				continue
			}
			for _, u := range pins {
				if locked[u] {
					continue
				}
				tg[u] += d[side[u]]
				if publish {
					gain[u] = tg[u]
					pq = fmheap.Push(pq, fmheap.Entry[int32]{V: u, Gain: tg[u]})
				}
			}
		}
		side[v] = to
		w[to] += wv
		cumGain += int(e.Gain)
		moves = append(moves, int32(v))
		if cumGain > bestGain {
			bestGain = cumGain
			bestIdx = len(moves) - 1
		}
	}

	// Roll back moves past the best prefix.
	for i := len(moves) - 1; i > bestIdx; i-- {
		v := moves[i]
		wv := h.VertexWeight(int(v))
		w[side[v]] -= wv
		side[v] = 1 - side[v]
		w[side[v]] += wv
	}
	st.heap, st.moves = pq, moves
	return bestGain > 0
}
