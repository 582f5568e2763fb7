package server

import (
	"sparseorder/internal/metrics"
	"sparseorder/internal/reorder"
	"sparseorder/internal/sparse"
)

// Predict picks the ordering an upload is reordered with, from the cheap
// order-sensitive features of internal/metrics — the paper's §6
// future-work direction (predict instead of trying everything), with the
// same decision rule the autotune example validates against the oracle:
//
//   - rectangular matrices are served unordered: the whole reorder
//     pipeline (Gray included) requires A square, and the paper's study
//     population is square graphs/meshes anyway;
//   - strong 1D load imbalance or a dominant off-diagonal share favours
//     GP, the study's static recommendation for irregular matrices;
//   - an already-banded, balanced matrix keeps RCM: nearly as good there
//     and an order of magnitude cheaper to compute (Table 5);
//   - everything else falls to GP.
//
// threads is the SpMV thread count the daemon serves with, which is what
// the imbalance feature must be computed against.
func Predict(a *sparse.CSR, threads int) reorder.Algorithm {
	if a.Rows != a.Cols {
		return reorder.Original
	}
	f := metrics.ComputeWorkers(a, threads, threads, 1)
	relBandwidth := float64(f.Bandwidth) / float64(max(a.Rows, 1))
	offdiagShare := float64(f.OffDiagNNZ) / float64(max(a.NNZ(), 1))
	switch {
	case f.Imbalance1D > 1.5 || offdiagShare > 0.5:
		return reorder.GP
	case relBandwidth < 0.05:
		return reorder.RCM
	default:
		return reorder.GP
	}
}
