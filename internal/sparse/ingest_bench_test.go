package sparse

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// benchMM builds an in-memory Matrix Market stream with nnz entries so the
// ingest benchmarks measure parsing and assembly, not disk.
func benchMM(rows, cols, nnz int) []byte {
	rng := rand.New(rand.NewSource(1))
	var buf bytes.Buffer
	buf.Grow(nnz * 24)
	fmt.Fprintf(&buf, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", rows, cols, nnz)
	for k := 0; k < nnz; k++ {
		fmt.Fprintf(&buf, "%d %d %.17g\n", 1+rng.Intn(rows), 1+rng.Intn(cols), rng.NormFloat64())
	}
	return buf.Bytes()
}

var benchSink *CSR

// BenchmarkIngestSinglePath compares the reader at one worker with the
// line-at-a-time oracle it replaced; the one path must not be slower.
func BenchmarkIngestSinglePath(b *testing.B) {
	data := benchMM(100000, 100000, 1200000)
	for _, c := range []struct {
		name string
		read func() (*CSR, error)
	}{
		{"oracle", func() (*CSR, error) { return readMatrixMarketSerial(bytes.NewReader(data)) }},
		{"workers=1", func() (*CSR, error) { return ReadMatrixMarketWorkers(bytes.NewReader(data), 1) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a, err := c.read()
				if err != nil {
					b.Fatal(err)
				}
				benchSink = a
			}
		})
	}
}

func BenchmarkIngestWorkers(b *testing.B) {
	data := benchMM(100000, 100000, 1200000)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := ReadMatrixMarketWorkers(bytes.NewReader(data), workers)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = a
			}
		})
	}
}
