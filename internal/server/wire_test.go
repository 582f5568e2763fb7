package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// spmvResponse is the POST /spmv/{key} 200 body as encoding/json sees it,
// the oracle appendSpMVResponse is checked against.
type spmvResponse struct {
	Y []float64 `json:"y"`
}

// jsonDecodeX is the reference decode of a /spmv body.
func jsonDecodeX(b []byte) ([]float64, error) {
	var req spmvRequest
	err := json.NewDecoder(bytes.NewReader(b)).Decode(&req)
	return req.X, err
}

// jsonEncodeY is the reference encode of a /spmv response.
func jsonEncodeY(y []float64) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(spmvResponse{Y: y})
	return buf.Bytes(), err
}

// checkDecodeAgrees: decodeSpMVBody and encoding/json agree on accepting b
// and, when both accept, on every bit of x.
func checkDecodeAgrees(t *testing.T, b []byte) []float64 {
	t.Helper()
	got, gotErr := decodeSpMVBody(b, 4)
	want, wantErr := jsonDecodeX(b)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("body %.200q: decodeSpMVBody err=%v, encoding/json err=%v", b, gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	if len(got) != len(want) {
		t.Fatalf("body %.200q: %d entries, encoding/json %d", b, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("body %.200q: x[%d] = %x, encoding/json %x", b, i,
				math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
	return got
}

// checkEncodeAgrees: appendSpMVResponse writes encoding/json's bytes for
// y, and fails exactly where encoding/json fails.
func checkEncodeAgrees(t *testing.T, y []float64) {
	t.Helper()
	got, gotErr := appendSpMVResponse([]byte("prefix"), y)
	want, wantErr := jsonEncodeY(y)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("y %v: appendSpMVResponse err=%v, encoding/json err=%v", y, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("y %v: error %q, encoding/json %q", y, gotErr, wantErr)
		}
		return
	}
	if !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("y %v:\n got %q\nwant %q", y, got[len("prefix"):], want)
	}
}

// wireSeeds are the /spmv body shapes the fuzz target starts from: the
// canonical shape, its whitespace variants, the shapes only encoding/json
// handles, and the number spellings at the conversion's edges.
var wireSeeds = []string{
	`{"x":[1,2,3]}`,
	`{"x":[]}`,
	`{"x":[0.5,-0.25,1e-3,-7E+2,0,-0]}`,
	" \t\n{ \"x\" :\r\n[ 1 ,\t2 , 3 ] }\n",
	`{"X":[1,2]}`,
	`{"x":[1],"y":2}`,
	`{"y":2,"x":[1]}`,
	`{"x":[1],"x":[2,3]}`,
	`{"\u0078":[1]}`,
	`null`,
	`{"x":null}`,
	`{"x":[1,2]}garbage`,
	`{"x":[1,2]} {"x":[3]}`,
	`{"x":[1,2,]}`,
	`{"x":[01]}`,
	`{"x":[1.]}`,
	`{"x":[.5]}`,
	`{"x":[+1]}`,
	`{"x":[1e]}`,
	`{"x":["1"]}`,
	`{"x":[NaN]}`,
	`{"x":[1e400]}`,
	`{"x":[-1e400]}`,
	`{"x":[1e-400]}`,
	`{"x":[4.9406564584124654e-324,2.2250738585072009e-308,1e-320]}`,
	`{"x":[1.7976931348623157e308,1.7976931348623159e308]}`,
	`{"x":[12345678901234567890123,0.000000000000000000000012345678901234567890123]}`,
	`{"x":[9007199254740993,18446744073709551615,18446744073709551616]}`,
	`{"x":[1e-6,9.999999999999999e-7,1e-7,1.5e-7,1e21,999999999999999900000,1e20]}`,
	`{"x":[1e99999,0e99999,1e-99999]}`,
	`{"x":[1`,
	``,
}

// FuzzSpMVBody is the differential test of the /spmv wire codec against
// encoding/json. The input is a request body for the decode oracle, and,
// read as little-endian float64 words, a y for the encode oracle; an
// accepted x is also encoded as a y.
func FuzzSpMVBody(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if x := checkDecodeAgrees(t, b); x != nil {
			checkEncodeAgrees(t, x)
		}
		y := make([]float64, len(b)/8)
		for i := range y {
			y[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		checkEncodeAgrees(t, y)
	})
}

// randomWireVector draws n values over many magnitudes, with the zeros,
// negative zeros, subnormals and format-boundary values the encoder must
// place exactly.
func randomWireVector(rng *rand.Rand, n int) []float64 {
	edges := []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e21,
		math.Nextafter(1e21, 0), 5e-324, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64, 1, -1}
	y := make([]float64, n)
	for i := range y {
		switch rng.Intn(4) {
		case 0:
			y[i] = edges[rng.Intn(len(edges))]
		case 1:
			y[i] = rng.Float64()*2 - 1
		default:
			y[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(600)-310))
		}
	}
	return y
}

// TestSpMVWireCanonicalFastPath: every body encoding/json itself writes
// for an x takes the one-pass scan (not the fallback) and round-trips the
// bits, so the fuzz target's agreement is not the fallback agreeing with
// itself.
func TestSpMVWireCanonicalFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		x := randomWireVector(rng, rng.Intn(200))
		body, err := json.Marshal(spmvRequest{X: x})
		if err != nil {
			t.Fatal(err)
		}
		got, ok := scanSpMVBody(body, len(x))
		if !ok {
			t.Fatalf("canonical body %.200q fell back to encoding/json", body)
		}
		for i := range x {
			if math.Float64bits(got[i]) != math.Float64bits(x[i]) {
				t.Fatalf("x[%d] = %v round-tripped to %v", i, x[i], got[i])
			}
		}
		checkDecodeAgrees(t, body)
	}
}

// TestSpMVWireFallbackShapes: each non-canonical seed leaves the one-pass
// scan and gets encoding/json's answer, and the canonical seeds do not.
func TestSpMVWireFallbackShapes(t *testing.T) {
	fast := map[string]bool{
		`{"x":[1,2,3]}`: true, `{"x":[]}`: true,
		`{"x":[0.5,-0.25,1e-3,-7E+2,0,-0]}`:                                               true,
		" \t\n{ \"x\" :\r\n[ 1 ,\t2 , 3 ] }\n":                                            true,
		`{"x":[1e-400]}`:                                                                  true,
		`{"x":[4.9406564584124654e-324,2.2250738585072009e-308,1e-320]}`:                  true,
		`{"x":[12345678901234567890123,0.000000000000000000000012345678901234567890123]}`: true,
		`{"x":[9007199254740993,18446744073709551615,18446744073709551616]}`:              true,
		`{"x":[1e-6,9.999999999999999e-7,1e-7,1.5e-7,1e21,999999999999999900000,1e20]}`:   true,
	}
	for _, s := range wireSeeds {
		if _, ok := scanSpMVBody([]byte(s), 0); ok != fast[s] {
			t.Errorf("scanSpMVBody(%q) ok = %v, want %v", s, ok, fast[s])
		}
		checkDecodeAgrees(t, []byte(s))
	}
	// A number beyond float64 range is a rejection, as in encoding/json.
	for _, s := range []string{`{"x":[1e400]}`, `{"x":[1,-1e400]}`, `{"x":[1e99999]}`} {
		if _, err := decodeSpMVBody([]byte(s), 1); err == nil {
			t.Errorf("decodeSpMVBody(%q) accepted an out-of-range number", s)
		}
	}
}

// TestSpMVWireEncodeMatchesJSON: random y over the whole float64 range,
// nil, empty and non-finite y encode (or fail) exactly as encoding/json.
func TestSpMVWireEncodeMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		checkEncodeAgrees(t, randomWireVector(rng, rng.Intn(200)))
	}
	for trial := 0; trial < 20000; trial++ {
		checkEncodeAgrees(t, []float64{math.Float64frombits(rng.Uint64())})
	}
	checkEncodeAgrees(t, nil)
	checkEncodeAgrees(t, []float64{})
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkEncodeAgrees(t, []float64{1, v})
	}
}

// benchWireSizes are the x/y lengths of the wire benchmarks: the serving
// benchmark's 1k–16k-row corpus.
var benchWireSizes = []int{1 << 10, 1 << 12, 1 << 14}

// BenchmarkSpMVWireDecode times decoding a /spmv body of uniform [-1, 1)
// values (the benchmark clients' x), through the one-pass codec and
// through encoding/json, its oracle.
func BenchmarkSpMVWireDecode(b *testing.B) {
	for _, n := range benchWireSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		body, err := json.Marshal(spmvRequest{X: x})
		if err != nil {
			b.Fatal(err)
		}
		for _, impl := range []struct {
			name string
			dec  func([]byte) ([]float64, error)
		}{
			{"wire", func(b []byte) ([]float64, error) { return decodeSpMVBody(b, n) }},
			{"json", jsonDecodeX},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, impl.name), func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := impl.dec(body); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSpMVWireEncode times encoding a /spmv response of n products,
// through the one-pass codec into a reused buffer and through
// encoding/json, its oracle.
func BenchmarkSpMVWireEncode(b *testing.B) {
	for _, n := range benchWireSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		y := make([]float64, n)
		for i := range y {
			y[i] = rng.NormFloat64() * 4
		}
		var buf []byte
		for _, impl := range []struct {
			name string
			enc  func([]float64) ([]byte, error)
		}{
			{"wire", func(y []float64) ([]byte, error) {
				var err error
				buf, err = appendSpMVResponse(buf[:0], y)
				return buf, err
			}},
			{"json", jsonEncodeY},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, impl.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out, err := impl.enc(y)
					if err != nil {
						b.Fatal(err)
					}
					b.SetBytes(int64(len(out)))
				}
			})
		}
	}
}
