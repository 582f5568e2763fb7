// Package fmheap is the max-gain priority queue shared by the
// Fiduccia-Mattheyses refinements of the graph and hypergraph
// partitioners and the separator's greedy vertex cover. Entries whose
// recorded gain no longer matches the caller's current gain are left in
// place and discarded on pop (lazy deletion).
//
// The heap sifts a hole instead of swapping: one write per level instead
// of three. A child replaces its parent only when its gain is strictly
// greater, so equal gains keep their array order and the pop sequence is
// a pure function of the push sequence — the same order as the textbook
// swap-based heap, ties included.
package fmheap

// Gain is the integer type a caller keeps its gains in. The graph
// partitioner uses int so that no total edge weight can overflow; the
// hypergraph partitioner uses int32, whose gains are bounded by a
// vertex's net count, to halve the entry size.
type Gain interface{ ~int | ~int32 }

// Entry is one queued (vertex, gain) pair.
type Entry[G Gain] struct {
	V    int32
	Gain G
}

// Heapify establishes the heap property over h in O(len(h)).
func Heapify[G Gain](h []Entry[G]) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(h, i, h[i])
	}
}

// Pop removes and returns the maximum-gain entry of a non-empty heap.
func Pop[G Gain](h []Entry[G]) (Entry[G], []Entry[G]) {
	e := h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	if len(h) > 0 {
		down(h, 0, last)
	}
	return e, h
}

// Push appends e and sifts it up past strictly smaller parents.
func Push[G Gain](h []Entry[G], e Entry[G]) []Entry[G] {
	h = append(h, e)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if e.Gain <= h[i].Gain {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = e
	return h
}

// down sifts x down from slot i, moving strictly greater children up
// into the hole.
func down[G Gain](h []Entry[G], i int, x Entry[G]) {
	n := len(h)
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].Gain > h[j1].Gain {
			j = j2
		}
		if h[j].Gain <= x.Gain {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = x
}
