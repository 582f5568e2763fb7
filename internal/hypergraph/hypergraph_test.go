package hypergraph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sparseorder/internal/gen"
	"sparseorder/internal/sparse"
)

func smallMatrix(t *testing.T) *sparse.CSR {
	t.Helper()
	// 4x3:
	// [x . x]
	// [x x .]
	// [. x .]
	// [. . x]
	coo := sparse.NewCOO(4, 3, 6)
	coo.Append(0, 0, 1)
	coo.Append(0, 2, 1)
	coo.Append(1, 0, 1)
	coo.Append(1, 1, 1)
	coo.Append(2, 1, 1)
	coo.Append(3, 2, 1)
	a, err := coo.ToCSRWorkers(1)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestColumnNet(t *testing.T) {
	h := ColumnNet(smallMatrix(t))
	if h.V != 4 || h.Nets != 3 {
		t.Fatalf("V=%d Nets=%d", h.V, h.Nets)
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Net 0 (column 0) pins rows 0 and 1.
	pins := h.Pins(0)
	if len(pins) != 2 || pins[0] != 0 || pins[1] != 1 {
		t.Errorf("net 0 pins = %v", pins)
	}
	// Vertex 0 (row 0) is in nets 0 and 2.
	nets := h.NetsOf(0)
	if len(nets) != 2 || nets[0] != 0 || nets[1] != 2 {
		t.Errorf("vertex 0 nets = %v", nets)
	}
}

func TestCutNet(t *testing.T) {
	h := ColumnNet(smallMatrix(t))
	// Rows {0,1} vs {2,3}: net0 internal, net1 cut (pins 1,2), net2 cut (0,3).
	part := []int32{0, 0, 1, 1}
	if c := CutNet(h, part); c != 2 {
		t.Errorf("CutNet = %d, want 2", c)
	}
	// All together: nothing cut.
	if c := CutNet(h, []int32{0, 0, 0, 0}); c != 0 {
		t.Errorf("CutNet single part = %d, want 0", c)
	}
}

func TestConnectivityMinusOne(t *testing.T) {
	h := ColumnNet(smallMatrix(t))
	part := []int32{0, 1, 2, 0}
	// net0 pins {0,1}: parts {0,1} -> 1; net1 pins {1,2}: parts {1,2} -> 1;
	// net2 pins {0,3}: parts {0,0} -> 0.
	if c := ConnectivityMinusOne(h, part, 3); c != 2 {
		t.Errorf("ConnectivityMinusOne = %d, want 2", c)
	}
}

// blockMatrix builds a block-diagonal pattern with `blocks` dense blocks of
// size bs; the ideal k=blocks partition cuts zero nets.
func blockMatrix(t *testing.T, blocks, bs int) *sparse.CSR {
	t.Helper()
	n := blocks * bs
	coo := sparse.NewCOO(n, n, n*bs)
	for b := 0; b < blocks; b++ {
		for i := 0; i < bs; i++ {
			for j := 0; j < bs; j++ {
				coo.Append(b*bs+i, b*bs+j, 1)
			}
		}
	}
	a, err := coo.ToCSRWorkers(1)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestKWayBlockDiagonalZeroCut(t *testing.T) {
	a := blockMatrix(t, 4, 8)
	h := ColumnNet(a)
	part, cut, err := KWay(h, 4, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cut != 0 {
		t.Errorf("block-diagonal cut = %d, want 0", cut)
	}
	if cut != CutNet(h, part) {
		t.Errorf("reported cut %d != recomputed %d", cut, CutNet(h, part))
	}
	// All rows of a block must share a part.
	for b := 0; b < 4; b++ {
		first := part[b*8]
		for i := 1; i < 8; i++ {
			if part[b*8+i] != first {
				t.Errorf("block %d split across parts", b)
			}
		}
	}
}

func TestKWayBalanceOnGrid(t *testing.T) {
	a := gen.Grid2D(20, 20)
	h := ColumnNet(a)
	for _, k := range []int{2, 4, 8} {
		part, cut, err := KWay(h, k, Options{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, k)
		for _, p := range part {
			if p < 0 || int(p) >= k {
				t.Fatalf("part id %d out of range", p)
			}
			counts[p]++
		}
		avg := float64(h.V) / float64(k)
		for p, c := range counts {
			if c == 0 {
				t.Errorf("k=%d: part %d empty", k, p)
			}
			if float64(c) > 1.4*avg {
				t.Errorf("k=%d: part %d has %d of %d vertices", k, p, c, h.V)
			}
		}
		if cut <= 0 || cut >= h.Nets {
			t.Errorf("k=%d: cut %d outside (0, %d)", k, cut, h.Nets)
		}
	}
}

func TestKWayK1AndErrors(t *testing.T) {
	h := ColumnNet(smallMatrix(t))
	part, cut, err := KWay(h, 1, Options{})
	if err != nil || cut != 0 {
		t.Fatalf("k=1: cut=%d err=%v", cut, err)
	}
	for _, p := range part {
		if p != 0 {
			t.Error("k=1 must assign part 0")
		}
	}
	if _, _, err := KWay(h, 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestKWayQuickValidAssignment(t *testing.T) {
	a := gen.Grid2D(8, 8)
	h := ColumnNet(a)
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw%6) + 1
		part, cut, err := KWay(h, k, Options{Seed: seed})
		if err != nil || len(part) != h.V {
			return false
		}
		return cut == CutNet(h, part)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestContractDropsSmallNets(t *testing.T) {
	h := ColumnNet(smallMatrix(t))
	// Match rows 0&1 (share net 0) -> net 0 becomes single-pin and is dropped.
	match := []int32{1, 0, 2, 3}
	coarse, cmap := contract(h, match, 3)
	if coarse.V != 3 {
		t.Fatalf("coarse.V = %d", coarse.V)
	}
	if err := coarse.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if cmap[0] != cmap[1] {
		t.Error("matched pair mapped apart")
	}
	for n := 0; n < coarse.Nets; n++ {
		if len(coarse.Pins(n)) < 2 {
			t.Errorf("net %d kept with %d pins", n, len(coarse.Pins(n)))
		}
	}
	// Vertex weights sum preserved.
	totalW := 0
	for v := 0; v < coarse.V; v++ {
		totalW += coarse.VertexWeight(v)
	}
	if totalW != h.V {
		t.Errorf("total weight %d, want %d", totalW, h.V)
	}
}

func TestFirstChoiceMatchIsMatching(t *testing.T) {
	h := ColumnNet(gen.Grid2D(10, 10))
	rng := rand.New(rand.NewSource(3))
	match, nCoarse := firstChoiceMatch(h, rng)
	pairs := 0
	for v := 0; v < h.V; v++ {
		m := int(match[v])
		if int(match[m]) != v {
			t.Fatalf("matching not symmetric at %d", v)
		}
		if m != v {
			pairs++
		}
	}
	if nCoarse != h.V-pairs/2 {
		t.Errorf("nCoarse = %d, want %d", nCoarse, h.V-pairs/2)
	}
}

func TestBisectBalanced(t *testing.T) {
	h := ColumnNet(gen.Grid2D(16, 16))
	rng := rand.New(rand.NewSource(4))
	side := Bisect(h, 0.5, Options{Seed: 4}, rng)
	w := [2]int{}
	for _, s := range side {
		w[s]++
	}
	if w[0] == 0 || w[1] == 0 {
		t.Fatalf("degenerate bisection %v", w)
	}
	total := w[0] + w[1]
	if w[0] > total*2/3 || w[1] > total*2/3 {
		t.Errorf("bisection weights %v too skewed", w)
	}
}
