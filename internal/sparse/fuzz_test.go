package sparse

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadMatrixMarket runs every input through both the serial reference
// reader and the parallel ingestion pipeline, checking that the parsers
// never panic, that they agree on accept/reject, that accepted matrices
// are structurally valid and identical between the two paths, and that
// accepted matrices survive a write/read round trip. Running the parallel
// path at 3 workers keeps chunk boundaries in play even on tiny inputs.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.5\n2 2 -3\n")
	f.Add("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 3\n")
	f.Add("%%MatrixMarket matrix coordinate integer skew-symmetric\n3 3 1\n2 1 4\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n% comment\n\n1 1 1\n1 1 2.5e-3\n")
	f.Add("garbage")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 9999\n1 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n-1 2 1\n1 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1 junk\n1 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1 junk\n")
	f.Add("%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n1 1 3\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1\ntrailing\n")

	f.Fuzz(func(t *testing.T, input string) {
		a, err := readMatrixMarketSerial(strings.NewReader(input))
		ap, perr := ReadMatrixMarketWorkers(strings.NewReader(input), 3)
		if (err == nil) != (perr == nil) {
			t.Fatalf("accept/reject disagreement: serial err=%v, parallel err=%v", err, perr)
		}
		if err != nil {
			return // rejection is fine; panics are not
		}
		if verr := a.Validate(); verr != nil {
			t.Fatalf("parser accepted an invalid matrix: %v", verr)
		}
		if !a.Equal(ap) {
			t.Fatal("parallel ingestion diverged from the serial reader")
		}
		var buf bytes.Buffer
		if werr := WriteMatrixMarket(&buf, a); werr != nil {
			t.Fatalf("write failed on accepted matrix: %v", werr)
		}
		b, rerr := readMatrixMarketSerial(&buf)
		if rerr != nil {
			t.Fatalf("round trip read failed: %v", rerr)
		}
		if !a.Equal(b) {
			t.Fatal("round trip changed the matrix")
		}
	})
}
