// Package decimal holds the repository's one decimal→float64 conversion,
// shared by the Matrix Market scanners in internal/sparse and the /spmv
// JSON wire in internal/server. Each caller scans its own grammar into a
// decimal mantissa and power of ten; ToFloat turns that pair into the
// correctly rounded float64, or reports that the caller must ask
// strconv.ParseFloat instead.
package decimal

import (
	"math"
	"math/big"
	"math/bits"
)

// MaxDigits is the longest significand, in decimal digits, that a uint64
// mantissa always holds exactly; scanners hand longer ones to strconv.
const MaxDigits = 19

// ToFloat converts the decimal mant × 10^e10 (negated if neg) to the
// correctly rounded float64, or reports ok=false when it cannot guarantee
// correct rounding and the caller must fall back to strconv.
func ToFloat(mant uint64, e10 int, neg bool) (float64, bool) {
	// Clinger's fast path: both the mantissa and the power of ten are
	// exactly representable, so one IEEE multiply or divide rounds
	// correctly.
	if mant < 1<<53 && e10 >= -22 && e10 <= 22 {
		f := float64(mant)
		if neg {
			f = -f
		}
		if e10 >= 0 {
			return f * pow10[e10], true
		}
		return f / pow10[-e10], true
	}
	return eiselLemire(mant, e10, neg)
}

// pow10 holds the exactly representable powers of ten (10^0..10^22).
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// Eisel–Lemire correctly rounded decimal→binary conversion (Lemire,
// "Number Parsing at a Gigabyte per Second", 2021): multiply the
// normalized 64-bit decimal mantissa by a truncated 128-bit binary
// representation of 10^e10 and round, bailing out in the rare cases where
// truncation could affect the rounding. The bail-outs (and the subnormal
// and overflow ranges) fall back to strconv via the caller.

const elMinExp10, elMaxExp10 = -348, 347

// elPow10[q-elMinExp10] holds the truncated 128-bit mantissa of 10^q,
// normalized to [2^127, 2^128), as {high, low} 64-bit halves. The table is
// computed exactly at init with big.Int instead of being pasted in as ~700
// lines of literals.
var elPow10 [elMaxExp10 - elMinExp10 + 1][2]uint64

func init() {
	ten := big.NewInt(10)
	mask64 := new(big.Int).SetUint64(math.MaxUint64)
	m, t := new(big.Int), new(big.Int)
	for q := elMinExp10; q <= elMaxExp10; q++ {
		// f = floor(q·log2(10)); the fixed-point approximation is exact
		// over the table's range (the normalization check below would
		// panic otherwise).
		f := (217706 * q) >> 16
		if q >= 0 {
			m.Exp(ten, t.SetInt64(int64(q)), nil)
			if s := 127 - f; s >= 0 {
				m.Lsh(m, uint(s))
			} else {
				m.Rsh(m, uint(-s))
			}
		} else {
			den := new(big.Int).Exp(ten, t.SetInt64(int64(-q)), nil)
			m.Quo(t.Lsh(big.NewInt(1), uint(127-f)), den)
		}
		if m.BitLen() != 128 {
			panic("decimal: power-of-ten table normalization failed")
		}
		elPow10[q-elMinExp10][1] = t.And(m, mask64).Uint64()
		elPow10[q-elMinExp10][0] = m.Rsh(m, 64).Uint64()
	}
}

func eiselLemire(mant uint64, e10 int, neg bool) (float64, bool) {
	if mant == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if e10 < elMinExp10 || e10 > elMaxExp10 {
		return 0, false
	}
	clz := bits.LeadingZeros64(mant)
	mant <<= uint(clz)
	retExp2 := uint64((217706*e10)>>16+64+1023) - uint64(clz)

	pow := &elPow10[e10-elMinExp10]
	xHi, xLo := bits.Mul64(mant, pow[0])
	if xHi&0x1FF == 0x1FF && xLo+mant < xLo {
		// The truncated high product is on a rounding boundary; refine
		// with the low 64 bits of the power, and bail if still ambiguous.
		yHi, yLo := bits.Mul64(mant, pow[1])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+mant < yLo {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	msb := xHi >> 63
	retMant := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb
	// Half-way between two float64s with all truncated bits zero: the
	// round-to-even decision could go either way, so defer to strconv.
	if xLo == 0 && xHi&0x1FF == 0 && retMant&3 == 1 {
		return 0, false
	}
	retMant += retMant & 1
	retMant >>= 1
	if retMant>>53 > 0 {
		retMant >>= 1
		retExp2++
	}
	// retExp2 ∈ [1, 0x7FE] is the normal range; anything else (subnormal,
	// ±Inf) goes to strconv.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := retMant&(1<<52-1) | retExp2<<52
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}
