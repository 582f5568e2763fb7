package spy

import (
	"bytes"
	"strings"
	"testing"

	"sparseorder/internal/gen"
	"sparseorder/internal/sparse"
)

func TestDensityCounts(t *testing.T) {
	coo := sparse.NewCOO(4, 4, 3)
	coo.Append(0, 0, 1)
	coo.Append(0, 1, 1)
	coo.Append(3, 3, 1)
	a, _ := coo.ToCSRWorkers(1)
	grid := Density(a, 2, 2)
	if grid[0][0] != 2 || grid[1][1] != 1 || grid[0][1] != 0 || grid[1][0] != 0 {
		t.Errorf("grid = %v", grid)
	}
	total := 0
	for _, row := range grid {
		for _, c := range row {
			total += c
		}
	}
	if total != a.NNZ() {
		t.Errorf("density loses nonzeros: %d of %d", total, a.NNZ())
	}
}

func TestDensityEmpty(t *testing.T) {
	a := &sparse.CSR{Rows: 0, Cols: 0, RowPtr: []int{0}}
	grid := Density(a, 3, 3)
	for _, row := range grid {
		for _, c := range row {
			if c != 0 {
				t.Fatal("empty matrix with nonzero density")
			}
		}
	}
}

func TestASCIIShape(t *testing.T) {
	a := gen.Grid2D(10, 10)
	out := ASCII(a, 12)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 14 { // 12 rows + 2 border lines
		t.Fatalf("ASCII has %d lines, want 14", len(lines))
	}
	for _, l := range lines {
		if len(l) != 14 {
			t.Fatalf("line %q has width %d, want 14", l, len(l))
		}
	}
	// A banded matrix must be dense on the diagonal and empty in the
	// corners.
	if lines[1][12] != ' ' || lines[12][1] != ' ' {
		t.Error("corners of a banded pattern should be empty")
	}
	if lines[1][1] == ' ' {
		t.Error("diagonal of a banded pattern should be marked")
	}
}

func TestASCIIDensityShading(t *testing.T) {
	// A cell with all the nonzeros must use the darkest glyph.
	coo := sparse.NewCOO(8, 8, 10)
	for k := 0; k < 10; k++ {
		coo.Append(0, 0, 1)
	}
	coo.Append(7, 7, 1)
	a, _ := coo.ToCSRWorkers(1)
	out := ASCII(a, 4)
	if !strings.ContainsRune(out, rune(asciiRamp[len(asciiRamp)-1])) {
		t.Error("densest cell not shaded darkest")
	}
}

func TestWritePGM(t *testing.T) {
	a := gen.Grid2D(8, 8)
	var buf bytes.Buffer
	if err := WritePGM(&buf, a, 16); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if !bytes.HasPrefix(data, []byte("P5\n16 16\n255\n")) {
		t.Fatalf("bad PGM header: %q", data[:20])
	}
	header := len("P5\n16 16\n255\n")
	if len(data) != header+16*16 {
		t.Fatalf("PGM payload %d bytes, want %d", len(data)-header, 16*16)
	}
	// Diagonal pixel dark, corner pixel white.
	if data[header] > 200 {
		t.Error("diagonal pixel should be dark")
	}
	if data[header+15] != 255 {
		t.Error("empty corner pixel should be white")
	}
}

func TestSideBySide(t *testing.T) {
	a := gen.Grid2D(6, 6)
	b := gen.Scramble(a, 1)
	out := SideBySide([]string{"original", "scrambled"}, []*sparse.CSR{a, b}, 8)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 11 { // label row + 8 rows + 2 borders
		t.Fatalf("side-by-side has %d lines, want 11", len(lines))
	}
	if !strings.Contains(lines[0], "original") || !strings.Contains(lines[0], "scrambled") {
		t.Error("labels missing")
	}
	// Each body line holds two bordered blocks separated by a space.
	if len(lines[1]) != 2*(8+2)+1 {
		t.Errorf("line width %d, want %d", len(lines[1]), 2*(8+2)+1)
	}
}
