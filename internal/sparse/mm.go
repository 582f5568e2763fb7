package sparse

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strings"
)

// Matrix Market exchange format support (coordinate real/integer/pattern,
// general/symmetric/skew-symmetric). This mirrors the format used by the
// SuiteSparse collection that the paper's dataset is drawn from.
// The reader is the chunked pipeline in ingest.go; this file holds the
// banner and size-line parsing it shares with ReadPermutation, and the
// writers.

// MMHeader describes the banner line of a Matrix Market file.
type MMHeader struct {
	Object   string // "matrix"
	Format   string // "coordinate" or "array"
	Field    string // "real", "integer" or "pattern"
	Symmetry string // "general", "symmetric", "skew-symmetric"
}

// readMMBanner parses and validates the banner line for the coordinate
// readers.
func readMMBanner(br *bufio.Reader) (MMHeader, error) {
	// Tolerate EOF on the banner read the same way the size-line loop
	// does: a stream holding only a banner (no trailing newline) should
	// be judged on the banner's content, not fail with a read error.
	banner, err := br.ReadString('\n')
	if err != nil && banner == "" {
		return MMHeader{}, fmt.Errorf("sparse: reading banner: %w", err)
	}
	fields := strings.Fields(strings.ToLower(banner))
	if len(fields) != 5 || fields[0] != "%%matrixmarket" {
		return MMHeader{}, fmt.Errorf("sparse: malformed Matrix Market banner %q", strings.TrimSpace(banner))
	}
	h := MMHeader{Object: fields[1], Format: fields[2], Field: fields[3], Symmetry: fields[4]}
	if h.Object != "matrix" || h.Format != "coordinate" {
		return MMHeader{}, fmt.Errorf("sparse: unsupported Matrix Market object/format %s/%s", h.Object, h.Format)
	}
	switch h.Field {
	case "real", "integer", "pattern":
	default:
		return MMHeader{}, fmt.Errorf("sparse: unsupported Matrix Market field %q", h.Field)
	}
	switch h.Symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return MMHeader{}, fmt.Errorf("sparse: unsupported Matrix Market symmetry %q", h.Symmetry)
	}
	return h, nil
}

// readMMSizeLine skips comments and blank lines, then parses the size
// line.
func readMMSizeLine(br *bufio.Reader) (rows, cols, nnz int, err error) {
	for {
		line, err := br.ReadString('\n')
		if err != nil && line == "" {
			return 0, 0, 0, fmt.Errorf("sparse: missing size line: %w", err)
		}
		t := trimMMSpace([]byte(line))
		if isCommentOrBlank(t) {
			continue
		}
		return parseSizeLine(t)
	}
}

// WriteMatrixMarket writes a in coordinate real general format with
// 1-based indices.
func WriteMatrixMarket(w io.Writer, a *CSR) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", a.Rows, a.Cols, a.NNZ()); err != nil {
		return err
	}
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, a.ColIdx[k]+1, a.Val[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WritePermutation writes a permutation as a Matrix Market integer vector
// (one 1-based index per line), the representation used by the paper's
// reordering artifact.
func WritePermutation(w io.Writer, p Perm) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix array integer general\n%d 1\n", len(p)); err != nil {
		return err
	}
	for _, v := range p {
		if _, err := fmt.Fprintf(bw, "%d\n", v+1); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadPermutation parses a permutation written by WritePermutation. The
// size line is validated the same way the matrix reader validates its own:
// exactly two integer fields (trailing tokens are rejected), and the
// length is capped at the int32 index range so a corrupt artifact fails
// loudly instead of allocating whatever its header claims.
func ReadPermutation(r io.Reader) (Perm, error) {
	br := bufio.NewReader(r)
	banner, err := br.ReadString('\n')
	if err != nil && banner == "" {
		return nil, fmt.Errorf("sparse: reading banner: %w", err)
	}
	if !strings.HasPrefix(strings.ToLower(banner), "%%matrixmarket matrix array integer") {
		return nil, fmt.Errorf("sparse: not an integer array Matrix Market file")
	}
	var n int
	for {
		line, err := br.ReadString('\n')
		if err != nil && line == "" {
			return nil, fmt.Errorf("sparse: missing size line: %w", err)
		}
		t := trimMMSpace([]byte(line))
		if isCommentOrBlank(t) {
			continue
		}
		nTok, rest := nextField(t)
		oneTok, rest := nextField(rest)
		if len(nTok) == 0 || len(oneTok) == 0 {
			return nil, fmt.Errorf("sparse: malformed size line %q: want 2 fields", t)
		}
		if tok, _ := nextField(rest); len(tok) != 0 {
			return nil, fmt.Errorf("sparse: malformed size line %q: trailing %q", t, tok)
		}
		v, ok := atoiField(nTok)
		if !ok {
			return nil, fmt.Errorf("sparse: malformed size line %q: bad length %q", t, nTok)
		}
		one, ok := atoiField(oneTok)
		if !ok {
			return nil, fmt.Errorf("sparse: malformed size line %q: bad column count %q", t, oneTok)
		}
		if one != 1 {
			return nil, fmt.Errorf("sparse: permutation must be a column vector, got %d columns", one)
		}
		n = v
		break
	}
	if n < 0 {
		return nil, fmt.Errorf("sparse: negative permutation length %d", n)
	}
	if int64(n) > math.MaxInt32 {
		return nil, fmt.Errorf("sparse: permutation length %d exceeds the int32 index range", n)
	}
	p := make(Perm, 0, n)
	for len(p) < n {
		line, err := br.ReadString('\n')
		if err != nil && line == "" {
			return nil, fmt.Errorf("sparse: after %d of %d entries: %w", len(p), n, err)
		}
		t := trimMMSpace([]byte(line))
		if isCommentOrBlank(t) {
			continue
		}
		tok, rest := nextField(t)
		if extra, _ := nextField(rest); len(extra) != 0 {
			return nil, fmt.Errorf("sparse: malformed permutation entry %q: trailing %q", t, extra)
		}
		v, ok := atoiField(tok)
		if !ok {
			return nil, fmt.Errorf("sparse: bad permutation entry %q", t)
		}
		p = append(p, v-1)
	}
	// Mirror the matrix reader's strictness: a permutation artifact holds
	// exactly n entries, so trailing content is corruption.
	for {
		line, err := br.ReadString('\n')
		if err != nil && line == "" {
			break
		}
		if t := trimMMSpace([]byte(line)); !isCommentOrBlank(t) {
			return nil, fmt.Errorf("sparse: content after the declared %d entries: %q", n, t)
		}
	}
	if !p.IsValid() {
		return nil, fmt.Errorf("sparse: file does not contain a permutation")
	}
	return p, nil
}
