package reorder

import (
	"sparseorder/internal/graph"
	"sparseorder/internal/par"
	"sparseorder/internal/sparse"
)

// amdCheckEvery is the number of eliminated pivots between cancellation
// checks in the AMD main loop.
const amdCheckEvery = 256

// approxMinimumDegree computes an approximate-minimum-degree ordering of g
// in the style of Amestoy, Davis and Duff (paper ref. [1]): elimination is
// simulated on a quotient graph whose cliques are stored implicitly as
// elements, and the degree of a variable is bounded from above by
//
//	d(i) = min(n-k, d_prev(i)+|L_p|-1, |A_i| + |L_p \ i| + Σ_{e∈E_i} |L_e \ L_p|)
//
// where the set differences |L_e \ L_p| for all affected elements are
// obtained in a single counting sweep. Elements absorbed by the pivot and
// elements whose pin set is contained in L_p (aggressive absorption) are
// removed. The returned permutation is new-to-old: position k holds the
// k-th eliminated variable. done is polled every amdCheckEvery
// eliminations (nil never cancels), and a cancelled call returns the
// partial elimination order, which the caller must discard.
func approxMinimumDegree(g *graph.Graph, done <-chan struct{}) sparse.Perm {
	n := g.N
	if n == 0 {
		return sparse.Perm{}
	}

	adj := make([][]int32, n)   // A_i: variable-variable adjacency
	elems := make([][]int32, n) // E_i: elements adjacent to variable i
	pins := make([][]int32, n)  // L_e: pins of element e (e = pivot id)
	alive := make([]bool, n)    // variable not yet eliminated
	elemAlive := make([]bool, n)
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		adj[v] = append([]int32(nil), g.Neighbors(v)...)
		deg[v] = len(adj[v])
		alive[v] = true
	}

	// Bucket queue over degrees with lazy invalidation.
	buckets := make([][]int32, n+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], int32(v))
	}
	minDeg := 0

	mark := make([]int32, n) // generation marks for L_p membership
	var gen int32
	w := make([]int, n) // |L_e \ L_p| counters
	wtag := make([]int32, n)
	var wgen int32

	order := make(sparse.Perm, 0, n)
	var lp []int32

	for len(order) < n {
		if len(order)%amdCheckEvery == amdCheckEvery-1 && par.Canceled(done) {
			return order
		}
		// Pop the variable of (approximately) minimum degree.
		var p int32 = -1
		for minDeg <= n {
			b := buckets[minDeg]
			for len(b) > 0 {
				cand := b[len(b)-1]
				b = b[:len(b)-1]
				if alive[cand] && deg[cand] == minDeg {
					p = cand
					break
				}
			}
			buckets[minDeg] = b
			if p >= 0 {
				break
			}
			minDeg++
		}

		// Build L_p = (A_p ∪ ⋃_{e∈E_p} L_e) \ {p}; absorb the elements of p.
		gen++
		mark[p] = gen
		lp = lp[:0]
		for _, u := range adj[p] {
			if alive[u] && mark[u] != gen {
				mark[u] = gen
				lp = append(lp, u)
			}
		}
		for _, e := range elems[p] {
			if !elemAlive[e] {
				continue
			}
			for _, u := range pins[e] {
				if alive[u] && mark[u] != gen {
					mark[u] = gen
					lp = append(lp, u)
				}
			}
			elemAlive[e] = false
			pins[e] = nil
		}
		alive[p] = false
		adj[p] = nil
		elems[p] = nil
		order = append(order, int(p))
		if len(lp) == 0 {
			continue
		}
		pinsP := make([]int32, len(lp))
		copy(pinsP, lp)
		pins[p] = pinsP
		elemAlive[p] = true

		// Counting sweep: after this loop, w[e] = |L_e \ L_p| for every
		// alive element e adjacent to a pin of p.
		wgen++
		for _, i := range lp {
			for _, e := range elems[i] {
				if !elemAlive[e] {
					continue
				}
				if wtag[e] != wgen {
					wtag[e] = wgen
					w[e] = len(pins[e])
				}
				w[e]--
			}
		}

		// Update every pin: prune A_i and E_i, append the new element, and
		// recompute the approximate degree.
		for _, i := range lp {
			a := adj[i][:0]
			for _, u := range adj[i] {
				if alive[u] && mark[u] != gen {
					a = append(a, u)
				}
			}
			adj[i] = a

			es := elems[i][:0]
			extDeg := 0
			for _, e := range elems[i] {
				if !elemAlive[e] {
					continue
				}
				if wtag[e] == wgen && w[e] == 0 {
					// Aggressive absorption: L_e ⊆ L_p, so e is redundant.
					elemAlive[e] = false
					pins[e] = nil
					continue
				}
				es = append(es, e)
				if wtag[e] == wgen {
					extDeg += w[e]
				} else {
					extDeg += len(pins[e])
				}
			}
			elems[i] = append(es, p)

			d := len(adj[i]) + len(lp) - 1 + extDeg
			if bound := deg[i] + len(lp) - 1; bound < d {
				d = bound
			}
			if bound := n - len(order); bound < d {
				d = bound
			}
			if d < 0 {
				d = 0
			}
			deg[i] = d
			buckets[d] = append(buckets[d], i)
			if d < minDeg {
				minDeg = d
			}
		}
	}
	return order
}
