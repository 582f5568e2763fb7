package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"strconv"

	"sparseorder/internal/decimal"
)

// The /spmv wire codec. A warm SpMV's CPU goes mostly to the JSON vectors,
// not the multiply, so both directions skip encoding/json's reflection:
//
//   - decodeSpMVBody scans the canonical request {"x":[n,...]} in one pass
//     and hands any other body to encoding/json, the reference grammar.
//     The scanner accepts a strict subset of what encoding/json accepts and
//     yields the same x bits there, the pattern of the Matrix Market
//     scanner's parseEntryFast/parseEntryLine.
//   - appendSpMVResponse writes {"y":[...]}\n byte for byte as
//     json.NewEncoder(w).Encode(spmvResponse{Y: y}) would.
//
// FuzzSpMVBody checks both contracts against encoding/json.

// spmvRequest is the POST /spmv/{key} body as encoding/json sees it; the
// fallback decodes into it.
type spmvRequest struct {
	X []float64 `json:"x"`
}

// decodeSpMVBody parses a POST /spmv body into x. cols presizes x for the
// one-pass scan. A body outside the canonical shape (another key order or
// case, unknown fields, null, trailing data, a number strconv rejects)
// goes to json.Decoder, whose answer, x or error, is returned as is.
func decodeSpMVBody(body []byte, cols int) ([]float64, error) {
	if x, ok := scanSpMVBody(body, cols); ok {
		return x, nil
	}
	var req spmvRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, err
	}
	return req.X, nil
}

// scanSpMVBody accepts exactly ws { ws "x" ws : ws [ ws numbers ws ] ws } ws,
// where numbers is empty or JSON numbers separated by ws , ws. It reports
// ok=false for anything else.
func scanSpMVBody(b []byte, cols int) ([]float64, bool) {
	p := skipSpace(b, 0)
	if p == len(b) || b[p] != '{' {
		return nil, false
	}
	p = skipSpace(b, p+1)
	if !bytes.HasPrefix(b[p:], []byte(`"x"`)) {
		return nil, false
	}
	p = skipSpace(b, p+3)
	if p == len(b) || b[p] != ':' {
		return nil, false
	}
	p = skipSpace(b, p+1)
	if p == len(b) || b[p] != '[' {
		return nil, false
	}
	p = skipSpace(b, p+1)
	x := make([]float64, 0, cols)
	if p < len(b) && b[p] == ']' {
		p++
	} else {
		for {
			v, next, ok := scanNumber(b, p)
			if !ok {
				return nil, false
			}
			x = append(x, v)
			p = skipSpace(b, next)
			if p == len(b) {
				return nil, false
			}
			if b[p] == ']' {
				p++
				break
			}
			if b[p] != ',' {
				return nil, false
			}
			p = skipSpace(b, p+1)
		}
	}
	p = skipSpace(b, p)
	if p == len(b) || b[p] != '}' {
		return nil, false
	}
	return x, skipSpace(b, p+1) == len(b)
}

// skipSpace returns the index of the first non-whitespace byte at or after
// p, JSON's whitespace being space, tab, newline and carriage return.
func skipSpace(b []byte, p int) int {
	for p < len(b) && (b[p] == ' ' || b[p] == '\t' || b[p] == '\n' || b[p] == '\r') {
		p++
	}
	return p
}

// scanNumber parses the JSON number -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
// starting at p and returns its value and the index after it. Significands
// of up to decimal.MaxDigits digits (leading zeros do not count) convert
// through decimal.ToFloat; longer ones, huge exponents and the rare cases
// ToFloat bails on go to strconv.ParseFloat, which is what encoding/json
// calls, so the bits always agree. ok=false means the bytes are not a JSON
// number or strconv rejects it (out of range).
func scanNumber(b []byte, p int) (float64, int, bool) {
	start, n := p, len(b)
	neg := p < n && b[p] == '-'
	if neg {
		p++
	}
	var mant uint64
	e10 := 0
	slow := false // too many digits or too large an exponent: strconv decides
	switch {
	case p < n && b[p] == '0':
		p++
	case p < n && b[p]-'1' < 9:
		p, mant, slow = scanDigits(b, p, 0)
	default:
		return 0, p, false
	}
	if p < n && b[p] == '.' {
		q, m, over := scanDigits(b, p+1, mant)
		if q == p+1 {
			return 0, q, false
		}
		e10 -= q - (p + 1)
		p, mant, slow = q, m, slow || over
	}
	if p < n && (b[p] == 'e' || b[p] == 'E') {
		p++
		esign := 1
		if p < n && (b[p] == '+' || b[p] == '-') {
			if b[p] == '-' {
				esign = -1
			}
			p++
		}
		estart, ev := p, 0
		for ; p < n && b[p]-'0' <= 9; p++ {
			if ev < 10000 {
				ev = ev*10 + int(b[p]-'0')
			} else {
				slow = true
			}
		}
		if p == estart {
			return 0, p, false
		}
		e10 += esign * ev
	}
	if !slow {
		if v, ok := decimal.ToFloat(mant, e10, neg); ok {
			return v, p, true
		}
	}
	v, err := strconv.ParseFloat(string(b[start:p]), 64)
	return v, p, err == nil
}

// scanDigits consumes the decimal digits at b[p:] and appends them to
// mant while it holds at most 18 significant digits (mant < 1e18; leading
// zeros leave it 0), so the decimal.MaxDigits-th still fits. over reports
// digits past that. Runs of eight digits convert in one step (Lemire's
// SWAR eight-digit parse).
func scanDigits(b []byte, p int, mant uint64) (next int, m uint64, over bool) {
	for p+8 <= len(b) && mant < 1e10 {
		v := binary.LittleEndian.Uint64(b[p:])
		if ((v+0x4646464646464646)|(v-0x3030303030303030))&0x8080808080808080 != 0 {
			break // not eight digits
		}
		v -= 0x3030303030303030
		v = v*10 + v>>8
		v = ((v&0x000000FF000000FF)*(100+1000000<<32) + (v>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
		mant = mant*1e8 + v
		p += 8
	}
	for ; p < len(b) && b[p]-'0' <= 9; p++ {
		if mant < 1e18 {
			mant = mant*10 + uint64(b[p]-'0')
		} else {
			over = true
		}
	}
	return p, mant, over
}

// appendSpMVResponse appends the /spmv 200 body for y to dst: the bytes
// json.NewEncoder(w).Encode(spmvResponse{Y: y}) writes, trailing newline
// included. A NaN or ±Inf in y is encoding/json's UnsupportedValueError.
func appendSpMVResponse(dst []byte, y []float64) ([]byte, error) {
	if y == nil {
		return append(dst, "{\"y\":null}\n"...), nil
	}
	dst = append(dst, `{"y":[`...)
	for i, f := range y {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		// encoding/json's float format: ES6 number-to-string, so the
		// exponent form only below 1e-6 and from 1e21 up, with e-07
		// trimmed to e-7.
		fmt := byte('f')
		if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			fmt = 'e'
		}
		dst = strconv.AppendFloat(dst, f, fmt, -1, 64)
		if fmt == 'e' {
			if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
				dst[n-2] = dst[n-1]
				dst = dst[:n-1]
			}
		}
	}
	return append(dst, "]}\n"...), nil
}

// maxJSONFloatLen bounds one encoded float64 plus its comma (the longest
// is "-0.0000012345678901234567,"), so a buffer grown by
// len(y)*maxJSONFloatLen+len(`{"y":[]}`+"\n") before appendSpMVResponse
// never reallocates.
const maxJSONFloatLen = 26
