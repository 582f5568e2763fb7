package decimal

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// TestToFloatMatchesStrconv checks the decimal→binary conversion bit for
// bit against strconv.ParseFloat over random mantissa/exponent pairs
// spanning the whole table range, including the truncation and halfway
// cases where the algorithm is allowed to bail but never to return a
// wrong bit pattern.
func TestToFloatMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(mant uint64, e10 int, neg bool) {
		got, ok := ToFloat(mant, e10, neg)
		if !ok {
			return // bailing to strconv is always allowed
		}
		s := strconv.FormatUint(mant, 10) + "e" + strconv.Itoa(e10)
		if neg {
			s = "-" + s
		}
		want, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("strconv rejected %q: %v", s, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ToFloat(%d, %d, %v) = %x, strconv = %x (%q)",
				mant, e10, neg, math.Float64bits(got), math.Float64bits(want), s)
		}
	}
	for trial := 0; trial < 500000; trial++ {
		mant := rng.Uint64() >> uint(rng.Intn(64))
		e10 := rng.Intn(2*(elMaxExp10+10)) - elMaxExp10 - 10
		check(mant, e10, rng.Intn(2) == 0)
	}
	// Powers of two and their neighbours stress the rounding boundaries.
	for p := uint(0); p < 64; p++ {
		for d := -1; d <= 1; d++ {
			m := uint64(1)<<p + uint64(d)
			for _, e := range []int{-310, -100, -23, -22, -5, 0, 5, 22, 23, 100, 308} {
				check(m, e, false)
				check(m, e, true)
			}
		}
	}
	if v, ok := ToFloat(0, 0, true); !ok || math.Float64bits(v) != math.Float64bits(math.Copysign(0, -1)) {
		t.Error("ToFloat(0, 0, neg) is not -0")
	}
	if v, ok := ToFloat(0, 400, true); !ok || math.Float64bits(v) != math.Float64bits(math.Copysign(0, -1)) {
		t.Error("ToFloat(0, 400, neg) is not -0")
	}
}

// TestMaxDigitsFitsUint64: every MaxDigits-digit decimal mantissa fits a
// uint64, and one more digit can overflow it.
func TestMaxDigitsFitsUint64(t *testing.T) {
	max := uint64(0)
	for i := 0; i < MaxDigits; i++ {
		if max > (math.MaxUint64-9)/10 {
			t.Fatalf("%d nines overflow a uint64", i+1)
		}
		max = max*10 + 9
	}
	if max <= (math.MaxUint64-9)/10 {
		t.Fatalf("MaxDigits = %d, but %d digits also fit", MaxDigits, MaxDigits+1)
	}
}
