package fmheap

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is the reference: container/heap's swap-based max-heap on gain,
// the textbook form both FM refinements were written against.
type refHeap[G Gain] []Entry[G]

func (h refHeap[G]) Len() int           { return len(h) }
func (h refHeap[G]) Less(i, j int) bool { return h[i].Gain > h[j].Gain }
func (h refHeap[G]) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap[G]) Push(x any)        { *h = append(*h, x.(Entry[G])) }
func (h *refHeap[G]) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// TestHeapMatchesReference checks that the hole-sifting heap pops in
// exactly the reference heap's order — ties included — under random
// interleavings of pushes and pops, for both gain types.
func TestHeapMatchesReference(t *testing.T) {
	t.Run("int", func(t *testing.T) { checkHeapMatchesReference[int](t) })
	t.Run("int32", func(t *testing.T) { checkHeapMatchesReference[int32](t) })
}

func checkHeapMatchesReference[G Gain](t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		var ref refHeap[G]
		var h []Entry[G]
		n := rng.Intn(40)
		for i := 0; i < n; i++ {
			e := Entry[G]{int32(i), G(rng.Intn(7) - 3)}
			ref = append(ref, e)
			h = append(h, e)
		}
		heap.Init(&ref)
		Heapify(h)
		for op := 0; op < 200; op++ {
			if rng.Intn(3) == 0 || len(h) == 0 {
				e := Entry[G]{int32(rng.Intn(1000)), G(rng.Intn(7) - 3)}
				heap.Push(&ref, e)
				h = Push(h, e)
				continue
			}
			want := heap.Pop(&ref).(Entry[G])
			var got Entry[G]
			got, h = Pop(h)
			if got != want {
				t.Fatalf("trial %d op %d: popped %+v, want %+v", trial, op, got, want)
			}
		}
		if len(h) != ref.Len() {
			t.Fatalf("trial %d: %d entries left, reference has %d", trial, len(h), ref.Len())
		}
	}
}
