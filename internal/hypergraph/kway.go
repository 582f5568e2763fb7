package hypergraph

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"sparseorder/internal/par"
)

// KWay partitions the hypergraph into k parts by recursive bisection under
// the cut-net objective. Following the standard recursive scheme for the
// cut-net metric, nets cut by a bisection are already paid for and are
// excluded from the subproblems. Returns the part of each vertex and the
// final cut-net value.
func KWay(h *Hypergraph, k int, opts Options) ([]int32, int, error) {
	part, err := kway(h, k, opts, false)
	if err != nil {
		return nil, 0, err
	}
	return part, CutNet(h, part), nil
}

// kway is the recursive-bisection driver shared by both objectives; split
// selects the subproblem rule for nets cut by an earlier bisection (see
// induced).
func kway(h *Hypergraph, k int, opts Options, split bool) ([]int32, error) {
	if k < 1 {
		return nil, fmt.Errorf("hypergraph: k must be >= 1, got %d", k)
	}
	opts = opts.withDefaults()
	part := make([]int32, h.V)
	if k == 1 {
		return part, nil
	}
	verts := make([]int32, h.V)
	for i := range verts {
		verts[i] = int32(i)
	}
	scratch := &sync.Pool{New: func() any { return newInducedScratch(h) }}
	recursive(h, verts, 0, k, part, opts, opts.Seed, par.NewLimiter(opts.Workers), split, scratch)
	if par.Canceled(opts.Cancel) {
		return nil, context.Canceled
	}
	return part, nil
}

// forkMinVerts is the branch size below which the recursive bisections
// stop forking and recurse inline.
const forkMinVerts = 4096

// recursive splits verts into parts firstPart … firstPart+k-1. Each
// branch derives its own RNG seed (the same multiplicative derivation as
// internal/partition), so the serial and parallel executions produce
// identical partitions; the two branches write disjoint entries of part,
// and lim bounds the live goroutines to the configured worker count.
// scratch holds *inducedScratch buffers sized for root, one per branch
// running at a time.
func recursive(root *Hypergraph, verts []int32, firstPart, k int, part []int32, opts Options, seed int64, lim *par.Limiter, split bool, scratch *sync.Pool) {
	if par.Canceled(opts.Cancel) {
		return
	}
	if k == 1 || len(verts) == 0 {
		for _, v := range verts {
			part[v] = int32(firstPart)
		}
		return
	}
	sc := scratch.Get().(*inducedScratch)
	sub := induced(root, verts, split, sc)
	scratch.Put(sc)
	kLeft := (k + 1) / 2
	frac := float64(kLeft) / float64(k)
	side := Bisect(sub, frac, opts, rand.New(rand.NewSource(seed)))
	var left, right []int32
	for i, s := range side {
		if s == 0 {
			left = append(left, verts[i])
		} else {
			right = append(right, verts[i])
		}
	}
	for _, v := range left {
		part[v] = int32(firstPart)
	}
	for _, v := range right {
		part[v] = int32(firstPart + kLeft)
	}
	leftSeed := seed*2654435761 + 1
	rightSeed := seed*2654435761 + 2
	if lim != nil && len(verts) > forkMinVerts {
		lim.Fork(
			func() { recursive(root, left, firstPart, kLeft, part, opts, leftSeed, lim, split, scratch) },
			func() { recursive(root, right, firstPart+kLeft, k-kLeft, part, opts, rightSeed, lim, split, scratch) })
		return
	}
	recursive(root, left, firstPart, kLeft, part, opts, leftSeed, lim, split, scratch)
	recursive(root, right, firstPart+kLeft, k-kLeft, part, opts, rightSeed, lim, split, scratch)
}

// inducedScratch is induced's per-branch workspace over the root
// hypergraph: local maps a root vertex to its index in the branch (-1
// outside it) and is restored after each use; netMark[n] == stamp marks
// net n as already visited by the current call. One kway call makes fewer
// than 2·V induced calls, so the stamp cannot wrap.
type inducedScratch struct {
	local   []int32
	netMark []uint32
	stamp   uint32
}

func newInducedScratch(root *Hypergraph) *inducedScratch {
	sc := &inducedScratch{local: make([]int32, root.V), netMark: make([]uint32, root.Nets)}
	for i := range sc.local {
		sc.local[i] = -1
	}
	return sc
}

// induced builds the sub-hypergraph on verts. A net with a pin outside
// verts was cut by an earlier bisection: under cut-net (split false) it is
// already paid for and dropped; under connectivity-1 (split true) it is
// restricted to its pins inside verts, because every further part it
// touches costs one more unit. Nets left with fewer than two pins are
// dropped under both rules. Nets keep the order in which verts first
// reach them.
func induced(root *Hypergraph, verts []int32, split bool, sc *inducedScratch) *Hypergraph {
	local := sc.local
	for i, v := range verts {
		local[v] = int32(i)
	}
	sc.stamp++
	sub := &Hypergraph{V: len(verts)}
	sub.VWgt = make([]int32, len(verts))
	for i, v := range verts {
		sub.VWgt[i] = int32(root.VertexWeight(int(v)))
	}
	var nptr []int
	var npins []int32
	nptr = append(nptr, 0)
	for _, v := range verts {
		for _, n := range root.NetsOf(int(v)) {
			if sc.netMark[n] == sc.stamp {
				continue
			}
			sc.netMark[n] = sc.stamp
			start := len(npins)
			drop := false
			for _, u := range root.Pins(int(n)) {
				if local[u] >= 0 {
					npins = append(npins, local[u])
				} else if !split {
					drop = true
					break
				}
			}
			if drop || len(npins)-start < 2 {
				npins = npins[:start]
				continue
			}
			nptr = append(nptr, len(npins))
		}
	}
	for _, v := range verts {
		local[v] = -1
	}
	sub.Nets = len(nptr) - 1
	sub.NPtr = nptr
	sub.NPins = npins
	sub.BuildVertexIncidence()
	return sub
}
