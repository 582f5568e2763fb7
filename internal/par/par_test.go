package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if got := Resolve(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Resolve(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Resolve(-3); got != 1 {
		t.Errorf("Resolve(-3) = %d, want 1", got)
	}
	for _, w := range []int{1, 2, 7} {
		if got := Resolve(w); got != w {
			t.Errorf("Resolve(%d) = %d, want %d", w, got, w)
		}
	}
}

func TestRangesCoversExactly(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 100, 1001} {
		for _, w := range []int{1, 2, 3, 4, 16, 200} {
			seen := make([]int32, n)
			Ranges(n, w, func(chunk, lo, hi int) {
				if lo > hi || lo < 0 || hi > n {
					t.Errorf("n=%d w=%d: bad range [%d,%d)", n, w, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, w, i, c)
				}
			}
		}
	}
}

func TestRangesChunkBoundariesDeterministic(t *testing.T) {
	n, w := 1000, 4
	c := Chunks(n, w)
	type rng struct{ lo, hi int }
	got := make([]rng, c)
	Ranges(n, w, func(chunk, lo, hi int) { got[chunk] = rng{lo, hi} })
	for k := 0; k < c; k++ {
		want := rng{k * n / c, (k + 1) * n / c}
		if got[k] != want {
			t.Errorf("chunk %d = %v, want %v", k, got[k], want)
		}
	}
}

func TestDoRunsAll(t *testing.T) {
	for _, w := range []int{1, 4} {
		var a, b, c atomic.Int32
		Do(w, func() { a.Add(1) }, func() { b.Add(1) }, func() { c.Add(1) })
		if a.Load() != 1 || b.Load() != 1 || c.Load() != 1 {
			t.Errorf("workers=%d: thunks ran (%d,%d,%d), want (1,1,1)", w, a.Load(), b.Load(), c.Load())
		}
	}
}

func TestEachCoversExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100} {
		for _, w := range []int{1, 2, 4, 7, 0} {
			seen := make([]int32, n)
			Each(n, w, func(worker, i int) {
				if worker < 0 || worker >= Chunks(n, Resolve(w)) {
					t.Errorf("n=%d w=%d: worker %d out of range", n, w, worker)
				}
				atomic.AddInt32(&seen[i], 1)
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, w, i, c)
				}
			}
		}
	}
}

func TestEachOneWorkerRunsInlineInOrder(t *testing.T) {
	var got []int
	Each(5, 1, func(worker, i int) {
		if worker != 0 {
			t.Errorf("worker = %d, want 0", worker)
		}
		got = append(got, i) // no synchronisation: must run on this goroutine
	})
	for i, v := range got {
		if v != i {
			t.Fatalf("order %v, want ascending", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("ran %d jobs, want 5", len(got))
	}
}
