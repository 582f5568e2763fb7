package metrics

import "sparseorder/internal/sparse"

// computeSerial evaluates the features one definition at a time — the
// differential oracle for the fused ComputeWorkers loop.
func computeSerial(a *sparse.CSR, blocks, threads int) Features {
	return Features{
		Bandwidth:   Bandwidth(a),
		Profile:     Profile(a),
		OffDiagNNZ:  OffDiagonalNNZ(a, blocks),
		Imbalance1D: Imbalance1D(a, threads),
	}
}
