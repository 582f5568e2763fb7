package sparse

import (
	"fmt"
	"math"
	"strconv"
)

// Allocation-light field scanning for the Matrix Market ingestion
// pipeline (ingest.go) and the header parsing in mm.go. The line-at-a-time
// reference reader kept in the tests parses every line through the same
// helpers, so the differential fuzz target (FuzzReadMatrixMarket) only has
// to distinguish chunking and assembly bugs, not tokenizer drift.
//
// The scanner is deliberately stricter than the historical
// fmt.Sscanf/strings.Fields loop: size and entry lines must carry exactly
// the field count the header promises — trailing garbage that Sscanf and
// Fields silently ignored is now a parse error (see DESIGN.md, "Ingestion
// contract").

// isMMSpace reports whether c separates fields on a Matrix Market line.
// The set is the ASCII blanks strings.Fields splits on (the newline is
// included so line-at-a-time callers can hand over ReadString output
// unstripped); multi-byte Unicode spaces are not separators, so a field
// containing one fails numeric parsing instead of being silently split.
func isMMSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f'
}

// trimMMSpace removes leading and trailing blanks (including the \r of a
// CRLF line ending) from a line.
func trimMMSpace(s []byte) []byte {
	lo := 0
	for lo < len(s) && isMMSpace(s[lo]) {
		lo++
	}
	hi := len(s)
	for hi > lo && isMMSpace(s[hi-1]) {
		hi--
	}
	return s[lo:hi]
}

// nextField splits s into its first blank-delimited field and the
// remainder. An empty tok means s held no further field.
func nextField(s []byte) (tok, rest []byte) {
	lo := 0
	for lo < len(s) && isMMSpace(s[lo]) {
		lo++
	}
	hi := lo
	for hi < len(s) && !isMMSpace(s[hi]) {
		hi++
	}
	return s[lo:hi], s[hi:]
}

// atoiField parses a decimal integer field with an optional sign. It
// accepts exactly the inputs strconv.Atoi accepts (falling back to it for
// the >18-digit tail where overflow handling matters).
func atoiField(tok []byte) (int, bool) {
	if len(tok) == 0 {
		return 0, false
	}
	i := 0
	neg := false
	if tok[0] == '+' || tok[0] == '-' {
		neg = tok[0] == '-'
		i++
		if i == len(tok) {
			return 0, false
		}
	}
	if len(tok)-i > 18 {
		// Possible int64 overflow: let strconv arbitrate.
		v, err := strconv.Atoi(string(tok))
		return v, err == nil
	}
	n := 0
	for ; i < len(tok); i++ {
		c := tok[i] - '0'
		if c > 9 {
			return 0, false
		}
		n = n*10 + int(c)
	}
	if neg {
		n = -n
	}
	return n, true
}

// parseValueField parses a floating-point value field. Plain decimal
// forms whose mantissa fits 53 bits and whose scale is within 10^±22 take
// an exact fast path (Clinger's rule: one IEEE multiply or divide of two
// exactly-represented operands is correctly rounded); everything else —
// exponents, long mantissas, inf/NaN, hex floats — falls back to
// strconv.ParseFloat, so the result is always bit-identical to the
// historical parser's.
func parseValueField(tok []byte) (float64, error) {
	i := 0
	neg := false
	if i < len(tok) && (tok[i] == '+' || tok[i] == '-') {
		neg = tok[i] == '-'
		i++
	}
	var mant uint64
	digits, frac := 0, 0
	dot := false
	for ; i < len(tok); i++ {
		c := tok[i]
		if c == '.' {
			if dot {
				return parseValueSlow(tok)
			}
			dot = true
			continue
		}
		d := c - '0'
		if d > 9 {
			return parseValueSlow(tok)
		}
		if digits == 19 {
			return parseValueSlow(tok)
		}
		mant = mant*10 + uint64(d)
		digits++
		if dot {
			frac++
		}
	}
	if digits == 0 || mant >= 1<<53 || frac > 22 {
		return parseValueSlow(tok)
	}
	v := float64(mant) / pow10[frac]
	if neg {
		v = -v
	}
	return v, nil
}

// pow10 holds the exactly-representable powers of ten (10^0..10^22).
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

func parseValueSlow(tok []byte) (float64, error) {
	return strconv.ParseFloat(string(tok), 64)
}

// parseSizeLine parses the coordinate-format size line "rows cols nnz",
// rejecting missing fields, non-integer fields and — unlike the Sscanf it
// replaces — trailing tokens.
func parseSizeLine(line []byte) (rows, cols, nnz int, err error) {
	var toks [3][]byte
	rest := line
	for k := 0; k < 3; k++ {
		toks[k], rest = nextField(rest)
		if len(toks[k]) == 0 {
			return 0, 0, 0, fmt.Errorf("sparse: malformed size line %q: want 3 fields", line)
		}
	}
	if tok, _ := nextField(rest); len(tok) != 0 {
		return 0, 0, 0, fmt.Errorf("sparse: malformed size line %q: trailing %q", line, tok)
	}
	var ok bool
	if rows, ok = atoiField(toks[0]); !ok {
		return 0, 0, 0, fmt.Errorf("sparse: malformed size line %q: bad row count %q", line, toks[0])
	}
	if cols, ok = atoiField(toks[1]); !ok {
		return 0, 0, 0, fmt.Errorf("sparse: malformed size line %q: bad column count %q", line, toks[1])
	}
	if nnz, ok = atoiField(toks[2]); !ok {
		return 0, 0, 0, fmt.Errorf("sparse: malformed size line %q: bad entry count %q", line, toks[2])
	}
	if rows < 0 || cols < 0 || nnz < 0 {
		return 0, 0, 0, fmt.Errorf("sparse: negative size line %d %d %d", rows, cols, nnz)
	}
	// COO stores int32 indices; reject dimensions it cannot represent
	// before any entry is read.
	if int64(rows) > math.MaxInt32 || int64(cols) > math.MaxInt32 {
		return 0, 0, 0, fmt.Errorf("sparse: matrix dimensions %dx%d exceed the int32 index range", rows, cols)
	}
	return rows, cols, nnz, nil
}

// parseEntryLine parses one coordinate entry against the header h and the
// size line's dimensions, returning 0-based indices. Pattern matrices
// carry exactly two fields and receive unit values; real/integer matrices
// carry exactly three. A line with extra fields is rejected — the
// historical reader silently ignored them. Skew-symmetric inputs must not
// carry diagonal entries (the format stores the strictly lower triangle),
// so i == j is rejected for them here rather than silently kept.
func parseEntryLine(line []byte, h MMHeader, rows, cols int) (i, j int, v float64, err error) {
	iTok, rest := nextField(line)
	jTok, rest := nextField(rest)
	if len(iTok) == 0 || len(jTok) == 0 {
		return 0, 0, 0, fmt.Errorf("sparse: malformed entry line %q", line)
	}
	var vTok []byte
	if h.Field != "pattern" {
		vTok, rest = nextField(rest)
		if len(vTok) == 0 {
			return 0, 0, 0, fmt.Errorf("sparse: malformed entry line %q", line)
		}
	}
	if tok, _ := nextField(rest); len(tok) != 0 {
		return 0, 0, 0, fmt.Errorf("sparse: malformed entry line %q: trailing %q", line, tok)
	}
	i, ok := atoiField(iTok)
	if !ok {
		return 0, 0, 0, fmt.Errorf("sparse: bad row index %q", iTok)
	}
	j, ok = atoiField(jTok)
	if !ok {
		return 0, 0, 0, fmt.Errorf("sparse: bad column index %q", jTok)
	}
	// Validate the 1-based indices against the size line here, before they
	// are narrowed to int32: an out-of-range 64-bit index could otherwise
	// wrap back into range and silently corrupt the matrix.
	if i < 1 || i > rows {
		return 0, 0, 0, fmt.Errorf("sparse: row index %d outside 1..%d", i, rows)
	}
	if j < 1 || j > cols {
		return 0, 0, 0, fmt.Errorf("sparse: column index %d outside 1..%d", j, cols)
	}
	if h.Symmetry == "skew-symmetric" && i == j {
		return 0, 0, 0, fmt.Errorf("sparse: skew-symmetric matrix stores an explicit diagonal entry (%d,%d)", i, j)
	}
	v = 1
	if h.Field != "pattern" {
		if v, err = parseValueField(vTok); err != nil {
			return 0, 0, 0, fmt.Errorf("sparse: bad value %q: %w", vTok, err)
		}
	}
	return i - 1, j - 1, v, nil
}

// isCommentOrBlank reports whether a trimmed line carries no entry data.
func isCommentOrBlank(line []byte) bool {
	return len(line) == 0 || line[0] == '%'
}
