package sparse

import (
	"math"

	"sparseorder/internal/decimal"
)

// Fast-path entry-line scanner for the parallel ingestion pipeline.
//
// parseEntryFast parses the overwhelmingly common shape of a coordinate
// entry — decimal indices and a plain decimal value separated by runs of
// spaces or tabs — in a single left-to-right pass with no allocation. It
// returns ok=false for anything outside that shape (comments, blanks,
// malformed or out-of-range entries, exotic value spellings like "inf",
// hex floats or 20+ digit mantissas), routing the line through the
// reference grammar in parseEntryLine, which either accepts it with
// identical semantics or produces the diagnostic. The fast path therefore
// accepts a strict subset of the reference grammar and never disagrees
// with it on a value: both convert through decimal.ToFloat, which is
// correctly rounded (verified against strconv in its tests) or bails to
// strconv.
func parseEntryFast(line []byte, pattern, skew bool, rows, cols int) (int, int, float64, bool) {
	p, n := 0, len(line)
	for p < n && (line[p] == ' ' || line[p] == '\t') {
		p++
	}
	// Row index: bare digits, 1-based, bounded by rows.
	start := p
	i := 0
	for p < n && line[p] >= '0' && line[p] <= '9' {
		i = i*10 + int(line[p]-'0')
		if i > math.MaxInt32 {
			return 0, 0, 0, false
		}
		p++
	}
	if p == start || i < 1 || i > rows {
		return 0, 0, 0, false
	}
	if p >= n || (line[p] != ' ' && line[p] != '\t') {
		return 0, 0, 0, false
	}
	for p < n && (line[p] == ' ' || line[p] == '\t') {
		p++
	}
	// Column index.
	start = p
	j := 0
	for p < n && line[p] >= '0' && line[p] <= '9' {
		j = j*10 + int(line[p]-'0')
		if j > math.MaxInt32 {
			return 0, 0, 0, false
		}
		p++
	}
	if p == start || j < 1 || j > cols {
		return 0, 0, 0, false
	}

	v := 1.0
	if !pattern {
		if p >= n || (line[p] != ' ' && line[p] != '\t') {
			return 0, 0, 0, false
		}
		for p < n && (line[p] == ' ' || line[p] == '\t') {
			p++
		}
		// Value: [sign] digits [. digits] [e|E [sign] digits]. The
		// mantissa accumulates into a uint64; decimal.MaxDigits digits
		// always fit, so the cap below rejects the line before a wrapped
		// value could ever be used.
		neg := false
		if p < n && (line[p] == '+' || line[p] == '-') {
			neg = line[p] == '-'
			p++
		}
		var mant uint64
		digits, e10 := 0, 0
		for p < n && line[p] >= '0' && line[p] <= '9' {
			mant = mant*10 + uint64(line[p]-'0')
			digits++
			p++
		}
		if p < n && line[p] == '.' {
			p++
			for p < n && line[p] >= '0' && line[p] <= '9' {
				mant = mant*10 + uint64(line[p]-'0')
				digits++
				e10--
				p++
			}
		}
		if digits == 0 || digits > decimal.MaxDigits {
			return 0, 0, 0, false
		}
		if p < n && (line[p] == 'e' || line[p] == 'E') {
			p++
			esign := 1
			if p < n && (line[p] == '+' || line[p] == '-') {
				if line[p] == '-' {
					esign = -1
				}
				p++
			}
			estart, ev := p, 0
			for p < n && line[p] >= '0' && line[p] <= '9' {
				ev = ev*10 + int(line[p]-'0')
				if ev > 10000 {
					return 0, 0, 0, false
				}
				p++
			}
			if p == estart {
				return 0, 0, 0, false
			}
			e10 += esign * ev
		}
		var ok bool
		v, ok = decimal.ToFloat(mant, e10, neg)
		if !ok {
			return 0, 0, 0, false
		}
	}

	// Only trailing whitespace may remain; anything else is the reference
	// grammar's "trailing token" error.
	for p < n && (line[p] == ' ' || line[p] == '\t' || line[p] == '\r') {
		p++
	}
	if p != n {
		return 0, 0, 0, false
	}
	if skew && i == j {
		return 0, 0, 0, false
	}
	return i - 1, j - 1, v, true
}
