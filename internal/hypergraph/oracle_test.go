package hypergraph

import (
	"fmt"
	"math/rand"
	"testing"

	"sparseorder/internal/gen"
	"sparseorder/internal/sparse"
)

// The recompute-style FM pass and its swap-based heap, kept only as the
// differential oracle for fmPassFast: fmPass recomputes every touched
// pin's gain from its whole net list and uses container/heap-style swaps.

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

// fmCorpus is the hypergraph corpus the FM differential test runs over:
// column-net hypergraphs of a scrambled mesh and an R-MAT graph; nets of
// more than maxUpdateNetSize pins, whose pins' published gains go stale
// (a mesh with dense columns, a tall dense matrix, a mesh plus one net
// over 40% of it); every weighted coarse level coarsen builds from the
// mesh; a hand-built hypergraph with empty and single-pin nets; and
// disconnected inputs (block-diagonal, isolated rows).
func fmCorpus(t *testing.T) map[string]*Hypergraph {
	t.Helper()
	mesh := ColumnNet(gen.Scramble(gen.Grid3D(9, 8, 7), 3))
	out := map[string]*Hypergraph{
		"mesh":       mesh,
		"rmat":       ColumnNet(gen.RMAT(9, 6, 4)),
		"densecols":  ColumnNet(gen.WithDenseRows(gen.Grid2D(24, 20), 4, 0.5, 2).Transpose()),
		"blockdiag":  ColumnNet(blockMatrix(t, 5, 12)),
		"isolated":   ColumnNet(isolatedRows(t)),
		"smallnets":  smallNets(),
		"tallskinny": ColumnNet(gen.TallSkinnyDense(300, 6, 5)),
		"small":      ColumnNet(smallMatrix(t)),
		"bignet":     withBigNet(ColumnNet(gen.Grid2D(20, 20))),
	}
	for i, lv := range coarsen(mesh, 16, rand.New(rand.NewSource(9)), nil) {
		out[fmt.Sprintf("coarse%d", i)] = lv.coarse
	}
	for name, h := range out {
		if err := h.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return out
}

// withBigNet appends to h one net holding the first 40% of the vertices
// and the first of the second half. Under the split-in-halves bisection
// the test starts from, moving that one vertex makes the net internal:
// the gains of its hundreds of pins, away from the boundary, drop without
// being republished, and stay dropped until one of them moves.
func withBigNet(h *Hypergraph) *Hypergraph {
	out := &Hypergraph{V: h.V, Nets: h.Nets + 1, NPtr: append([]int(nil), h.NPtr...), NPins: append([]int32(nil), h.NPins...)}
	for v := 0; v < h.V*4/10; v++ {
		out.NPins = append(out.NPins, int32(v))
	}
	out.NPins = append(out.NPins, int32(h.V/2))
	out.NPtr = append(out.NPtr, len(out.NPins))
	out.BuildVertexIncidence()
	return out
}

// isolatedRows is two disconnected 3x3 blocks plus rows with no entries.
func isolatedRows(t *testing.T) *sparse.CSR {
	t.Helper()
	coo := sparse.NewCOO(9, 9, 18)
	for b := 0; b < 2; b++ {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				coo.Append(3*b+i, 3*b+j, 1)
			}
		}
	}
	a, err := coo.ToCSRWorkers(1)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// smallNets has empty nets, single-pin nets and one net spanning every
// vertex beside ordinary two- and three-pin nets.
func smallNets() *Hypergraph {
	h := &Hypergraph{V: 8}
	for _, pins := range [][]int32{{}, {0, 1}, {3}, {1, 2, 3}, {}, {4, 5}, {5}, {5, 6, 7}, {0, 1, 2, 3, 4, 5, 6, 7}, {7, 0}} {
		h.NPins = append(h.NPins, pins...)
		h.NPtr = append(h.NPtr, len(h.NPins)-len(pins))
	}
	h.NPtr = append(h.NPtr, len(h.NPins))
	h.Nets = len(h.NPtr) - 1
	h.BuildVertexIncidence()
	return h
}

// TestHypergraphFMPassMatchesReference drives the incremental pass and the
// recompute-style oracle from the same bisections (random ones, and the
// vertex range split in halves), pass after pass, under a loose and a
// tight balance cap, and requires identical sides, side weights and
// improvement flags.
func TestHypergraphFMPassMatchesReference(t *testing.T) {
	for name, h := range fmCorpus(t) {
		rng := rand.New(rand.NewSource(7))
		total := h.TotalVertexWeight()
		for trial := 0; trial < 10; trial++ {
			sideRef := make([]uint8, h.V)
			for v := range sideRef {
				if trial < 8 {
					sideRef[v] = uint8(rng.Intn(2))
				} else if v >= h.V/2 {
					sideRef[v] = 1
				}
			}
			sideFast := append([]uint8(nil), sideRef...)
			var wFast [2]int
			for v := 0; v < h.V; v++ {
				wFast[sideFast[v]] += h.VertexWeight(v)
			}
			maxW := [2]int{total*6/10 + 1, total*6/10 + 1}
			if trial%2 == 1 {
				maxW = [2]int{max(wFast[0], total/2) + 1, max(wFast[1], total/2) + 1}
			}
			st := newFMState(h)
			for pass := 0; pass < 6; pass++ {
				impRef := fmPass(h, sideRef, maxW)
				impFast := fmPassFast(h, sideFast, &wFast, maxW, st)
				var wRef [2]int
				for v := 0; v < h.V; v++ {
					wRef[sideRef[v]] += h.VertexWeight(v)
				}
				if impRef != impFast || wRef != wFast {
					t.Fatalf("%s trial %d pass %d: improved %v/%v weights %v/%v",
						name, trial, pass, impRef, impFast, wRef, wFast)
				}
				for v := range sideRef {
					if sideRef[v] != sideFast[v] {
						t.Fatalf("%s trial %d pass %d: vertex %d side %d/%d",
							name, trial, pass, v, sideRef[v], sideFast[v])
					}
				}
				if !impRef {
					break
				}
			}
		}
	}
}

// BenchmarkReorderHPFMPass compares one incremental FM pass with the
// recompute-style oracle it replaced, from the same random bisection of
// the column-net hypergraphs of a scrambled 3-D mesh and an R-MAT graph.
func BenchmarkReorderHPFMPass(b *testing.B) {
	for _, m := range []struct {
		name string
		h    *Hypergraph
	}{
		{"mesh", ColumnNet(gen.Scramble(gen.Grid3D(24, 24, 24), 2))},
		{"rmat", ColumnNet(gen.RMAT(12, 8, 1))},
	} {
		h := m.h
		rng := rand.New(rand.NewSource(1))
		side0 := make([]uint8, h.V)
		var w0 [2]int
		for v := range side0 {
			side0[v] = uint8(rng.Intn(2))
			w0[side0[v]] += h.VertexWeight(v)
		}
		maxW := [2]int{h.V*6/10 + 1, h.V*6/10 + 1}
		side := make([]uint8, h.V)
		st := newFMState(h)
		for _, c := range []struct {
			name string
			pass func() bool
		}{
			{"oracle", func() bool { return fmPass(h, side, maxW) }},
			{"fast", func() bool { w := w0; return fmPassFast(h, side, &w, maxW, st) }},
		} {
			b.Run(m.name+"/"+c.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(side, side0)
					c.pass()
				}
			})
		}
	}
}
